package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/wire"
)

// probeRepeats is how many times each probe runs; the median is reported.
const probeRepeats = 9

// probe is one isolated measurement of a layer's public function.
type probe struct {
	name  string
	value float64
	unit  string
}

// timed runs prep (untimed) and then op, probeRepeats times, and returns
// op's median time in ms.
func timed(prep func(), op func() error) (float64, error) {
	ms := make([]float64, 0, probeRepeats)
	for i := 0; i < probeRepeats; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// runProbes times each layer's public functions in isolation on the
// workload's own model, data and vectors.
func runProbes(w workload, seed uint64, tmp string) ([]probe, error) {
	var out []probe
	add := func(name, unit string, v float64, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, probe{name, v, unit})
		return nil
	}
	cfg := w.config(seed)
	fed := w.data(seed)
	model := w.newModel(seed)
	w0 := nn.FlattenParams(model, nil)
	dim := len(w0)

	// nn: one training step, Forward + CrossEntropy + Backward on a batch.
	idx := make([]int, w.batch)
	for i := range idx {
		idx[i] = i
	}
	b := dataset.Collate(fed.Clients[0], idx)
	step := func() error {
		_, d := nn.CrossEntropy(model.Forward(b.X), b.Labels)
		model.Backward(d)
		return nil
	}
	step() // warm up
	objs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var allocs []float64
	v, err := timed(func() { metrics.Read(objs) }, func() error {
		before := objs[0].Value.Uint64()
		step()
		metrics.Read(objs)
		allocs = append(allocs, float64(objs[0].Value.Uint64()-before))
		return nil
	})
	if err := add("nn.train_step_ms", "ms", v, err); err != nil {
		return out, err
	}
	out = append(out, probe{"nn.train_step_allocs", median(allocs), "count"})

	// pipeline: the client's outbound stack and the server's inverse.
	pipe, err := core.NewClientPipeline(cfg, rng.New(seed))
	if err != nil {
		return out, err
	}
	sens := dp.FedAvgSensitivity{Clip: pipe.ClipBound(), LR: cfg.LR}.Sensitivity()
	var enc *pipeline.Update
	v, err = timed(func() { enc = pipeline.NewDense(append([]float64(nil), w0...)) },
		func() error { return pipe.Apply(enc, sens) })
	if err := add("pipeline.apply_ms", "ms", v, err); err != nil {
		return out, err
	}
	inv, err := core.NewServerPipeline(cfg)
	if err != nil {
		return out, err
	}
	var u *pipeline.Update
	v, err = timed(func() { u = clonePayload(enc) }, func() error { return inv.Invert(u) })
	if err := add("pipeline.invert_ms", "ms", v, err); err != nil {
		return out, err
	}
	decoded := u.Dense

	// core: the f16 downlink codec.
	var gm *wire.GlobalModel
	var codes []byte
	v, err = timed(func() { gm = &wire.GlobalModel{Round: 2, Version: 1, CohortSize: numClients, Weights: w0} },
		func() (err error) { codes, err = core.EncodeDownlinkF16Into(gm, codes); return err })
	if err := add("core.downlink_encode_ms", "ms", v, err); err != nil {
		return out, err
	}
	encoded := gm.WeightsP
	var scratch []float64
	v, err = timed(func() { gm = &wire.GlobalModel{Round: 2, WeightsP: clonePayload(encoded)} },
		func() (err error) { scratch, err = core.DecodeGlobalInto(gm, scratch); return err })
	if err := add("core.downlink_decode_ms", "ms", v, err); err != nil {
		return out, err
	}

	// wire: one client's update, as the client's pipeline released it.
	update := func(id int) *wire.LocalUpdate {
		m := &wire.LocalUpdate{ClientID: uint32(id), Round: 2, NumSamples: uint64(w.geo.trainPerClient),
			BaseVersion: 1, InCohort: true, Epsilon: pipe.Epsilon(), ComputeSec: 0.1}
		if enc.Enc == wire.EncDense {
			m.Primal = append([]float64(nil), enc.Dense...)
		} else {
			m.PrimalP = clonePayload(enc)
		}
		return m
	}
	e := wire.NewEncoder(nil)
	lu := update(0)
	v, err = timed(nil, func() error { e.Reset(); lu.Marshal(e); return nil })
	if err := add("wire.encode_ms", "ms", v, err); err != nil {
		return out, err
	}
	var got wire.LocalUpdate
	v, err = timed(nil, func() error { return got.Unmarshal(wire.NewDecoder(e.Bytes())) })
	if err := add("wire.decode_ms", "ms", v, err); err != nil {
		return out, err
	}

	// core: the server's decode and fold of one round's batch, on the path
	// the run takes (journaled runs decode in a separate pass).
	agg, err := core.NewAggregator(cfg, w0, numClients)
	if err != nil {
		return out, err
	}
	if c, ok := agg.(interface{ Close() error }); ok {
		defer c.Close()
	}
	fs, fused := pipeline.FusedStage(nil), false
	if !w.journal {
		fs, fused = core.EnableFusedFold(agg, inv)
	}
	decode := func(batch []*wire.LocalUpdate) error {
		if fused {
			return core.DecodeUpdatesFused(batch, fs, dim)
		}
		return core.DecodeUpdates(batch, inv, dim, 0)
	}
	var batch []*wire.LocalUpdate
	fresh := func() {
		batch = batch[:0]
		for id := 0; id < numClients; id++ {
			batch = append(batch, update(id))
		}
	}
	v, err = timed(fresh, func() error { return decode(batch) })
	if err := add("core.decode_ms", "ms", v, err); err != nil {
		return out, err
	}
	var decErr error
	v, err = timed(func() { fresh(); decErr = decode(batch) }, func() error {
		if decErr != nil {
			return decErr
		}
		return agg.Aggregate(batch)
	})
	if err := add("core.fold_ms", "ms", v, err); err != nil {
		return out, err
	}

	// journal: one admit-sized record appended with fsync, then a reopen
	// that replays every appended record.
	dir := filepath.Join(tmp, "probe-journal")
	if err := os.RemoveAll(dir); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(dir)
	if err != nil {
		return out, err
	}
	rec := &wire.JournalRecord{Op: wire.JournalAdmit, Round: 2, NumSamples: uint64(w.geo.trainPerClient),
		BaseVersion: 1, Primal: decoded}
	v, err = timed(nil, func() error { return j.Append(rec) })
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err := add("journal.append_ms", "ms", v, err); err != nil {
		return out, err
	}
	v, err = timed(nil, func() error {
		j, err := journal.Open(dir)
		if err != nil {
			return err
		}
		if n := len(j.Recovered().Records); n != probeRepeats {
			j.Close()
			return fmt.Errorf("reopened journal holds %d records, want %d", n, probeRepeats)
		}
		return j.Close()
	})
	if err := add("journal.open_ms", "ms", v, err); err != nil {
		return out, err
	}

	// core: server-side evaluation of a model on the test set.
	v, err = timed(nil, func() error { core.EvaluateWeights(model, w0, fed.Test, 256); return nil })
	return out, add("core.eval_ms", "ms", v, err)
}

// clonePayload deep-copies p, so a probe that transforms a payload in
// place starts from the same bytes every repeat.
func clonePayload(p *wire.Payload) *wire.Payload {
	c := *p
	c.Dense = append([]float64(nil), p.Dense...)
	c.Codes = append([]byte(nil), p.Codes...)
	c.Indices = append([]uint32(nil), p.Indices...)
	c.Values = append([]float64(nil), p.Values...)
	return &c
}
