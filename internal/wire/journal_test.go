package wire

import (
	"reflect"
	"strings"
	"testing"
)

// roundTripRecord encodes rec and decodes it into a fresh struct.
func roundTripRecord(t *testing.T, rec *JournalRecord) *JournalRecord {
	t.Helper()
	e := NewEncoder(nil)
	rec.Marshal(e)
	var got JournalRecord
	if err := got.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return &got
}

func TestJournalRecordRoundTrip(t *testing.T) {
	recs := []*JournalRecord{
		{Seq: 1, Op: JournalRoundStart, Round: 1, Version: 0, Cohort: []uint32{0, 1, 2, 3}},
		{Seq: 2, Op: JournalAdmit, Round: 1, ClientID: 3, NumSamples: 128, BaseVersion: 7,
			Primal: []float64{0.25, -3.5, 1e-9}},
		{Seq: 3, Op: JournalLedger, Round: 4, ClientID: 1, LedgerOp: LedgerDepart, Param: 9},
		{Seq: 4, Op: JournalLedger, Round: 4, ClientID: 2, LedgerOp: LedgerReport},
		{Seq: 5, Op: JournalCommit, Round: 4, Version: 4, Weights: []float64{1, 2, 3, 4}},
	}
	for i, rec := range recs {
		got := roundTripRecord(t, rec)
		// Normalize nil-vs-empty slices for the comparison: Reset leaves
		// zero-length slices where the original had nil.
		norm := func(r *JournalRecord) JournalRecord {
			c := *r
			if len(c.Cohort) == 0 {
				c.Cohort = nil
			}
			if len(c.Primal) == 0 {
				c.Primal = nil
			}
			if len(c.Weights) == 0 {
				c.Weights = nil
			}
			return c
		}
		if !reflect.DeepEqual(norm(rec), norm(got)) {
			t.Fatalf("record %d round-trip mismatch:\n  sent %+v\n  got  %+v", i, rec, got)
		}
	}
}

// TestJournalRecordPayloadRoundTrip pins the encoded admit: an Admit that
// journals its update as received carries the payload in field 13, every
// encoding survives the round trip bit for bit, and no dense primal
// appears beside it.
func TestJournalRecordPayloadRoundTrip(t *testing.T) {
	payloads := []*Payload{
		{Enc: EncDense, Dim: 3, Dense: []float64{0.25, -3.5, 1e-9}},
		{Enc: EncFloat16, Dim: 3, Codes: []byte{0x00, 0x3c, 0x00, 0xc0, 0x01, 0x80}},
		{Enc: EncQuant, Dim: 4, Scale: 0.125, Offset: -2, Bits: 8, Codes: []byte{0, 17, 128, 255}},
		{Enc: EncQuant, Dim: 2, Scale: 1e-3, Offset: 0.5, Bits: 12, Codes: []byte{0xff, 0x0f, 0x01, 0x00}},
		{Enc: EncSparse, Dim: 9, Indices: []uint32{0, 4, 8}, Values: []float64{1, -2, 0.5}},
	}
	for _, p := range payloads {
		rec := &JournalRecord{Seq: 2, Op: JournalAdmit, Round: 1, ClientID: 3, NumSamples: 128,
			BaseVersion: 7, Payload: p}
		got := roundTripRecord(t, rec)
		if got.Op != JournalAdmit || got.ClientID != 3 || got.NumSamples != 128 || got.BaseVersion != 7 {
			t.Fatalf("%s admit header round-trip: %+v", p.Enc, got)
		}
		if len(got.Primal) != 0 || got.Payload == nil {
			t.Fatalf("%s admit decoded with primal %v, payload %v", p.Enc, got.Primal, got.Payload)
		}
		norm := func(q Payload) Payload {
			if len(q.Dense) == 0 {
				q.Dense = nil
			}
			if len(q.Indices) == 0 {
				q.Indices = nil
			}
			if len(q.Values) == 0 {
				q.Values = nil
			}
			if len(q.Codes) == 0 {
				q.Codes = nil
			}
			return q
		}
		if !reflect.DeepEqual(norm(*p), norm(*got.Payload)) {
			t.Fatalf("%s payload round-trip mismatch:\n  sent %+v\n  got  %+v", p.Enc, p, got.Payload)
		}
	}
}

// TestJournalRecordRejectsMisplacedPayload pins the admit shape: a payload
// on any record other than an Admit, or an Admit carrying both a dense
// primal and a payload, is corrupt — replay must not guess which vector
// the fold was meant to consume.
func TestJournalRecordRejectsMisplacedPayload(t *testing.T) {
	f16 := &Payload{Enc: EncFloat16, Dim: 1, Codes: []byte{0x00, 0x3c}}
	bad := map[string]*JournalRecord{
		"round start": {Seq: 1, Op: JournalRoundStart, Round: 1, Cohort: []uint32{0}, Payload: f16},
		"ledger":      {Seq: 1, Op: JournalLedger, Round: 1, ClientID: 1, LedgerOp: LedgerReport, Payload: f16},
		"commit":      {Seq: 1, Op: JournalCommit, Round: 1, Version: 1, Weights: []float64{1}, Payload: f16},
		"both":        {Seq: 1, Op: JournalAdmit, Round: 1, NumSamples: 8, Primal: []float64{1}, Payload: f16},
	}
	for name, rec := range bad {
		e := NewEncoder(nil)
		rec.Marshal(e)
		var got JournalRecord
		if err := got.Unmarshal(NewDecoder(e.Bytes())); err == nil {
			t.Errorf("%s: record with a misplaced payload accepted", name)
		}
	}
}

func TestJournalRecordRejectsBadOps(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint64(2, 9) // op out of range
	var rec JournalRecord
	if err := rec.Unmarshal(NewDecoder(e.Bytes())); err == nil || !strings.Contains(err.Error(), "op") {
		t.Fatalf("op 9 accepted: %v", err)
	}
	e.Reset()
	e.Uint64(2, uint64(JournalLedger))
	e.Uint64(11, 9) // ledger op out of range
	if err := rec.Unmarshal(NewDecoder(e.Bytes())); err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Fatalf("ledger op 9 accepted: %v", err)
	}
	// A record with no op at all is also rejected: replay cannot dispatch it.
	if err := rec.Unmarshal(NewDecoder(nil)); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestJournalRecordResetDropsStaleFields(t *testing.T) {
	// A reused struct must not leak a previous record's vectors into a
	// record that omits them (the same staleness contract as LocalUpdate).
	full := &JournalRecord{Seq: 1, Op: JournalCommit, Round: 1, Version: 1, Weights: []float64{9, 9, 9}}
	e := NewEncoder(nil)
	full.Marshal(e)
	var rec JournalRecord
	if err := rec.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	slim := &JournalRecord{Seq: 2, Op: JournalLedger, Round: 2, ClientID: 1, LedgerOp: LedgerReport}
	slim.Marshal(e)
	if err := rec.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if len(rec.Weights) != 0 {
		t.Fatalf("stale weights survived reuse: %v", rec.Weights)
	}
}

func TestJournalCheckpointRoundTrip(t *testing.T) {
	cp := &JournalCheckpoint{
		Seq: 42, NextRound: 7, Version: 6,
		Weights:       []float64{0.5, -0.5, 3.25},
		DepartedUntil: []uint32{0, ^uint32(0), 0},
		BenchedUntil:  []uint32{0, 0, 9},
		Strikes:       []uint32{0, 0, 2},
		AwaitRejoin:   []uint32{0, 0, 0},
		Rejoined:      3, TimedOut: 5, Inflight: 2,
	}
	e := NewEncoder(nil)
	cp.Marshal(e)
	var got JournalCheckpoint
	if err := got.Unmarshal(NewDecoder(e.Bytes())); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*cp, got) {
		t.Fatalf("checkpoint round-trip mismatch:\n  sent %+v\n  got  %+v", cp, got)
	}
}

func TestJournalCheckpointRejectsDisagreeingRosters(t *testing.T) {
	cp := &JournalCheckpoint{
		Seq: 1, NextRound: 2, Weights: []float64{1},
		DepartedUntil: []uint32{0, 0},
		BenchedUntil:  []uint32{0},
		Strikes:       []uint32{0, 0},
		AwaitRejoin:   []uint32{0, 0},
	}
	e := NewEncoder(nil)
	cp.Marshal(e)
	var got JournalCheckpoint
	if err := got.Unmarshal(NewDecoder(e.Bytes())); err == nil {
		t.Fatal("checkpoint with mismatched membership arrays accepted")
	}
}
