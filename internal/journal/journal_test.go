package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

func rec(op uint8, round uint32) *wire.JournalRecord {
	r := &wire.JournalRecord{Op: op, Round: round}
	switch op {
	case wire.JournalRoundStart:
		r.Cohort = []uint32{0, 1, 2}
	case wire.JournalAdmit:
		r.ClientID = round % 3
		r.NumSamples = 64
		r.Primal = []float64{float64(round), -0.5, 2.25}
	case wire.JournalCommit:
		r.Version = uint64(round)
		r.Weights = []float64{1.5 * float64(round), -3, 0.125}
	}
	return r
}

func mustOpen(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := Open(dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return j
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	if !j.Recovered().Empty() {
		t.Fatal("fresh journal recovered state")
	}
	want := []*wire.JournalRecord{
		rec(wire.JournalRoundStart, 1),
		rec(wire.JournalAdmit, 1),
		rec(wire.JournalCommit, 1),
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if j.Seq() != 3 {
		t.Fatalf("seq %d after 3 appends", j.Seq())
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2 := mustOpen(t, dir)
	defer j2.Close()
	got := j2.Recovered()
	if got.Checkpoint != nil || got.TornTail {
		t.Fatalf("unexpected recovery shape: %+v", got)
	}
	if len(got.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got.Records), len(want))
	}
	for i, r := range got.Records {
		if r.Seq != uint64(i+1) || r.Op != want[i].Op || r.Round != want[i].Round {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if got.Records[1].Primal[0] != 1 || got.Records[2].Weights[0] != 1.5 {
		t.Fatal("vector payloads did not survive replay")
	}
	// Appends continue the sequence where the crashed process left it.
	if err := j2.Append(rec(wire.JournalRoundStart, 2)); err != nil {
		t.Fatal(err)
	}
	if j2.Seq() != 4 {
		t.Fatalf("seq %d after recovery append", j2.Seq())
	}
}

func TestJournalTornTailIsTruncatedNotFatal(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	for r := uint32(1); r <= 3; r++ {
		if err := j.Append(rec(wire.JournalCommit, r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: drop its final 5 bytes, as a crash mid-append
	// would.
	if err := os.Truncate(walPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir)
	got := j2.Recovered()
	if !got.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(got.Records) != 2 {
		t.Fatalf("replayed %d records past a torn tail, want 2", len(got.Records))
	}
	// The tail was truncated: a new append must extend a clean log.
	if err := j2.Append(rec(wire.JournalCommit, 9)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := mustOpen(t, dir)
	defer j3.Close()
	if got := j3.Recovered(); got.TornTail || len(got.Records) != 3 {
		t.Fatalf("log not clean after torn-tail truncation: %+v", got)
	}
}

func TestJournalStopsAtFirstBadFrame(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	for r := uint32(1); r <= 3; r++ {
		if err := j.Append(rec(wire.JournalCommit, r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the first frame: everything from that frame
	// on is untrusted and dropped.
	walPath := filepath.Join(dir, walName)
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[10] ^= 0xff
	if err := os.WriteFile(walPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir)
	defer j2.Close()
	if got := j2.Recovered(); !got.TornTail || len(got.Records) != 0 {
		t.Fatalf("bad frame did not stop replay: %+v", got)
	}
}

func TestJournalCheckpointCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	for r := uint32(1); r <= 3; r++ {
		if err := j.Append(rec(wire.JournalCommit, r)); err != nil {
			t.Fatal(err)
		}
	}
	cp := &wire.JournalCheckpoint{
		NextRound: 4, Version: 3, Weights: []float64{7, 8, 9},
		DepartedUntil: []uint32{0, 0}, BenchedUntil: []uint32{0, 5},
		Strikes: []uint32{0, 1}, AwaitRejoin: []uint32{0, 0},
		TimedOut: 1,
	}
	if err := j.Checkpoint(cp); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if cp.Seq != 3 {
		t.Fatalf("checkpoint stamped seq %d, want 3", cp.Seq)
	}
	if err := j.Append(rec(wire.JournalRoundStart, 4)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir)
	defer j2.Close()
	got := j2.Recovered()
	if got.Checkpoint == nil {
		t.Fatal("checkpoint not recovered")
	}
	if got.Checkpoint.Seq != 3 || got.Checkpoint.NextRound != 4 || got.Checkpoint.Weights[0] != 7 {
		t.Fatalf("checkpoint content: %+v", got.Checkpoint)
	}
	if got.Checkpoint.BenchedUntil[1] != 5 || got.Checkpoint.Strikes[1] != 1 || got.Checkpoint.TimedOut != 1 {
		t.Fatalf("membership snapshot content: %+v", got.Checkpoint)
	}
	if len(got.Records) != 1 || got.Records[0].Seq != 4 {
		t.Fatalf("tail after checkpoint: %+v", got.Records)
	}
}

func TestJournalReplaySkipsPreCheckpointTail(t *testing.T) {
	// The crash window between checkpoint rename and WAL truncation leaves
	// already-folded records in the tail; replay must skip them by
	// sequence number instead of double-applying.
	dir := t.TempDir()
	j := mustOpen(t, dir)
	for r := uint32(1); r <= 3; r++ {
		if err := j.Append(rec(wire.JournalCommit, r)); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, walName)
	preTrunc, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(&wire.JournalCheckpoint{NextRound: 4, Version: 3, Weights: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(wire.JournalRoundStart, 4)); err != nil {
		t.Fatal(err)
	}
	postTail, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Reconstruct the untruncated WAL: pre-checkpoint frames followed by
	// the post-checkpoint appends.
	if err := os.WriteFile(walPath, append(preTrunc, postTail...), 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir)
	defer j2.Close()
	got := j2.Recovered()
	if len(got.Records) != 1 || got.Records[0].Seq != 4 {
		t.Fatalf("pre-checkpoint records not skipped: %+v", got.Records)
	}
}

func TestJournalRecoverInPlace(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	j.NoSync = true
	if err := j.Append(rec(wire.JournalRoundStart, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(wire.JournalAdmit, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := j.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(got.Records) != 2 {
		t.Fatalf("in-place recovery replayed %d records", len(got.Records))
	}
	if !j.NoSync {
		t.Fatal("NoSync not preserved across Recover")
	}
	// The rebound journal keeps appending with the next sequence number.
	if err := j.Append(rec(wire.JournalCommit, 1)); err != nil {
		t.Fatal(err)
	}
	if j.Seq() != 3 {
		t.Fatalf("seq %d after recover+append", j.Seq())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalCorruptCheckpointIsTyped(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir)
	if err := j.Append(rec(wire.JournalCommit, 1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(&wire.JournalCheckpoint{NextRound: 2, Version: 1, Weights: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(dir, checkpointName)
	buf, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(cpPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt checkpoint: want ErrCorrupt, got %v", err)
	}
}

// TestJournalMisplacedAdmitPayloadIsCorrupt: a record whose CRC holds but
// whose admit shape does not (a payload off an Admit, or beside a dense
// primal) is not a torn write, and replay surfaces it as ErrCorrupt.
func TestJournalMisplacedAdmitPayloadIsCorrupt(t *testing.T) {
	f16 := &wire.Payload{Enc: wire.EncFloat16, Dim: 3, Codes: []byte{0, 0x3c, 0, 0xc0, 0, 0}}
	commit := rec(wire.JournalCommit, 1)
	commit.Payload = f16
	both := rec(wire.JournalAdmit, 1)
	both.Payload = f16
	for name, bad := range map[string]*wire.JournalRecord{"payload on commit": commit, "primal and payload": both} {
		dir := t.TempDir()
		j := mustOpen(t, dir)
		for _, r := range []*wire.JournalRecord{rec(wire.JournalRoundStart, 1), bad} {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}
