package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestTailLeavesTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n, p int
		v    float64
		ok   bool
	}{
		{n: 100, p: 90, v: 90, ok: true},   // rank 90, 10 beyond
		{n: 65, p: 84, v: 55, ok: true},    // rank ceil(54.6) = 55, 10 beyond
		{n: 20, p: 50, v: 10, ok: true},    // the median is the highest that leaves 10
		{n: 1000, p: 99, v: 990, ok: true}, // p99 leaves exactly 10
		{n: 19, p: 100, v: 19, ok: false},  // too short: the maximum
	} {
		p, v, ok := tail(seq(c.n))
		if p != c.p || v != c.v || ok != c.ok {
			t.Errorf("tail of 1..%d = p%d %v %v, want p%d %v %v", c.n, p, v, ok, c.p, c.v, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSplitRoundsSumsToWallTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * 1e6)) }
	sp := func(name string, round, client int, from, to float64) span {
		return span{name: name, round: round, client: client, start: at(from), end: at(to), samples: 4}
	}
	// Round 2 runs from the round-1 line at 100 ms to its own line at 200.
	ends := []time.Time{at(100), at(200)}
	spans := []span{
		sp(spanDispatch, 2, -1, 101, 105),
		sp(spanGatherWait, 2, -1, 105, 170),
		sp(spanDecodeFold, 2, -1, 171, 180),
		sp(spanEval, 2, -1, 182, 195),
		// Round 1 spans must not leak into round 2.
		sp(spanDispatch, 1, -1, 0, 50),
	}
	for c := 0; c < numClients; c++ {
		spans = append(spans,
			sp(spanRecvWait, 2, c, 90, 104),
			sp(spanForward, 2, c, 106, 120),
			sp(spanBackward, 2, c, 120, 150),
			sp(spanUpload, 2, c, 160, 165),
			sp(spanClientWork, 2, c, 104, 165),
		)
	}
	splits, err := splitRounds(spans, ends)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 {
		t.Fatalf("%d splits, want 1", len(splits))
	}
	s := splits[0]
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("wall", s.wall, 100)
	near("prepare", s.prepare, 1) // line 100 → SendTo 101
	near("dispatch", s.dispatch, 4)
	near("gather", s.gatherWait, 65)
	near("decode_fold", s.decodeFold, 9)
	near("commit_eval", s.commitEval, 20) // fold end 180 → line 200
	near("residual", s.residual, 1)       // 170-171 is untraced
	near("eval", s.eval, 13)
	near("recv_wait", s.recvWait, 14)
	near("client_other", s.clientOther, 61-14-30-5)
	if s.samples != 4*numClients {
		t.Errorf("samples = %d, want %d", s.samples, 4*numClients)
	}
	if err := checkAccounting(splits); err != nil {
		t.Errorf("1%% residual rejected: %v", err)
	}

	// A gap the named phases do not cover fails the accounting check.
	wide := append([]span(nil), spans...)
	wide[1] = sp(spanGatherWait, 2, -1, 120, 170)
	splits, err = splitRounds(wide, ends)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAccounting(splits); err == nil {
		t.Errorf("a %.0f ms residual of a 100 ms round passed", splits[0].residual)
	}

	// Client phases that outgrow the client's own span are an error.
	over := append([]span(nil), spans...)
	over = append(over, sp(spanBackward, 2, 0, 150, 180))
	if _, err := splitRounds(over, ends); err == nil {
		t.Error("client phases longer than the client span passed")
	}
}

func TestVectorFieldBytesMatchesCodec(t *testing.T) {
	for _, dim := range []int{1, 15, 16, 8191, 8192, 51450, 1628170} {
		v := make([]float64, dim)
		e := wire.NewEncoder(nil)
		e.Doubles(4, v)
		if got, want := vectorFieldBytes(dim, false), e.Len(); got != want {
			t.Errorf("dense dim %d: closed form %d, codec %d", dim, got, want)
		}
		e.Reset()
		p := &wire.Payload{Enc: wire.EncFloat16, Dim: uint32(dim), Codes: make([]byte, 2*dim)}
		p.EncodeInto(e, 10)
		if got, want := vectorFieldBytes(dim, true), e.Len(); got != want {
			t.Errorf("f16 dim %d: closed form %d, codec %d", dim, got, want)
		}
	}

	// Whole messages: the closed form plus a bounded header.
	const dim = 1000
	up := &wire.LocalUpdate{ClientID: 1, Round: 2, NumSamples: 256, BaseVersion: 1, InCohort: true,
		Epsilon: math.Inf(1), ComputeSec: 0.25,
		PrimalP: &wire.Payload{Enc: wire.EncFloat16, Dim: dim, Codes: make([]byte, 2*dim)}}
	down := &wire.GlobalModel{Round: 2, Version: 1, CohortSize: numClients, Weights: make([]float64, dim)}
	size := func(m interface{ Marshal(*wire.Encoder) }) uint64 {
		e := wire.NewEncoder(nil)
		m.Marshal(e)
		return uint64(numClients * e.Len())
	}
	if err := checkRoundBytes("uplink", size(up), dim, true); err != nil {
		t.Error(err)
	}
	if err := checkRoundBytes("downlink", size(down), dim, false); err != nil {
		t.Error(err)
	}
	if err := checkRoundBytes("uplink", size(up), dim, false); err == nil {
		t.Error("an f16 round passed as dense")
	}
	if err := checkRoundBytes("downlink", size(down)/numClients, dim, false); err == nil {
		t.Error("a round missing one client's message passed")
	}
}

// tiny shrinks w to a smoke-test geometry. The accuracy floor is dropped:
// a few rounds on a few samples need not learn.
func tiny(w workload) workload {
	w.geo = geometry{trainPerClient: 16, test: 16, rounds: 3, hidden: 32}
	w.batch = min(w.batch, 8)
	w.accFloor = 0
	if w.journal {
		w.checkpointEvery = 2
	}
	return w
}

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (workloads []string, e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return workloads, e2e, layer
}

func sameMetrics(t *testing.T, mode string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			t.Errorf("%s run lacks %s", mode, name)
		} else if m.Unit != unit {
			t.Errorf("%s run reports %s in %s, BENCHMARK.json says %s", mode, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s run reports %s, which BENCHMARK.json does not declare", mode, name)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	names, e2e, layer := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for i, name := range names {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if workloads[i].name != name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, workloads[i].name, name)
		}
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				b := &bench{w: tiny(w), seed: 7, tmp: t.TempDir()}
				var res result
				if traced {
					res = b.traced()
				} else {
					res = b.untraced()
				}
				if len(res.problems) > 0 || res.Failed > 0 {
					t.Fatalf("traced=%v: %d of %d rounds failed: %v", traced, res.Failed, res.Attempted, res.problems)
				}
				if traced {
					sameMetrics(t, "traced", res.Metrics, layer)
				} else {
					sameMetrics(t, "untraced", res.Metrics, e2e)
				}
				for name, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
			}
		})
	}
}
