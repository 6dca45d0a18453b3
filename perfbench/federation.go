package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/wire"
)

// maxParallel caps concurrently training clients and GOMAXPROCS alike: the
// load is sized for a 2-core machine and never asks for more cores than the
// machine has.
func maxParallel() int { return min(numClients, runtime.NumCPU()) }

// federation is the record of one real federation: set-up, the server's
// per-round timestamps and traffic, the final model and its recovery.
type federation struct {
	setup time.Duration
	ends  []time.Time // one per Progress line, i.e. per committed round
	// up and down are the server's received and sent bytes per round.
	up, down []uint64
	// journalSeq and journalBytes sample the journal's sequence number and
	// on-disk size at every round end (traced journaled runs only).
	journalSeq   []uint64
	journalBytes []int64
	// mem samples runtime/metrics at every round end (traced runs only).
	mem []memSample

	res       *core.Result
	final     []float64 // committed weights after the last round
	recovery  time.Duration
	recovered []float64 // weights rebuilt from disk by the recovery steps
}

// fedOptions selects the optional parts of one federation.
type fedOptions struct {
	seed   uint64
	tmpDir string  // scratch directory of the journal or checkpoint
	trace  *tracer // nil for an untraced federation
}

// runFederation runs one federation of w end to end over rpc loopback and
// then times the server's recovery from disk.
func runFederation(w workload, o fedOptions) (*federation, error) {
	runtime.GC() // leave the previous federation's garbage out of this one
	dir := filepath.Join(o.tmpDir, "journal")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	fed := w.data(o.seed)
	w0 := nn.FlattenParams(w.newModel(o.seed), nil)
	cfg := w.config(o.seed)
	srv, cts, err := connect(len(w0), cfg.Rounds)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	var j *journal.Journal
	if w.journal {
		if j, err = journal.Open(dir); err != nil {
			return nil, err
		}
		defer j.Close()
	}
	f := &federation{setup: time.Since(t0)}

	var mu sync.Mutex
	var built []nn.Module
	factory := func() nn.Module {
		m := w.newModel(o.seed)
		if o.trace != nil {
			m = o.trace.module(m)
		}
		mu.Lock()
		built = append(built, m)
		mu.Unlock()
		return m
	}
	p := &progress{f: f, srv: srv, last: srv.Stats(), journal: j, traced: o.trace != nil}
	opts := core.RunOptions{
		ValidateEvery:   w.validateEvery(),
		Progress:        p,
		MaxParallel:     maxParallel(),
		Journal:         j,
		CheckpointEvery: w.checkpointEvery,
	}
	var st comm.ServerTransport = srv
	if o.trace != nil {
		st, cts = o.trace.transports(st, cts)
		opts.Gate = o.trace.gate()
	}
	f.res, err = core.RunWithTransport(cfg, fed, factory, opts, st, cts)
	if err != nil {
		return f, err
	}
	if f.final, err = committedWeights(built); err != nil {
		return f, err
	}

	// Recovery: a journaled server closes its journal; any other server
	// leaves a checkpoint of its committed model. Either way the restart is
	// journal.Open, core.RecoverServer, then Apply onto a fresh aggregator.
	if j != nil {
		err = j.Close()
	} else {
		err = writeCheckpoint(dir, f.final, cfg.Rounds)
	}
	if err != nil {
		return f, err
	}
	var times []float64
	for i := 0; i < recoveryRepeats; i++ {
		var d time.Duration
		if d, f.recovered, err = recoverServer(dir, cfg, w0); err != nil {
			return f, err
		}
		times = append(times, d.Seconds())
	}
	f.recovery = time.Duration(median(times) * float64(time.Second))
	return f, nil
}

// recoveryRepeats is how many times each federation's restart is timed;
// replaying a cleanly closed journal leaves it as it was, so every repeat
// does the same work.
const recoveryRepeats = 5

// connect listens on loopback, dials every client and completes the join.
func connect(dim, rounds int) (*rpc.Server, []comm.ClientTransport, error) {
	srv, err := rpc.Listen("127.0.0.1:0", rpc.ServerConfig{NumClients: numClients, Rounds: rounds, ModelSize: dim})
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	accepted := make(chan error, 1)
	go func() { accepted <- srv.Accept() }()
	cts := make([]comm.ClientTransport, numClients)
	for i := range cts {
		c, err := rpc.Dial(srv.Addr(), uint32(i), fmt.Sprintf("perfbench-%d", i))
		if err != nil {
			srv.Close() // unblocks Accept
			<-accepted
			for _, ct := range cts[:i] {
				ct.Close()
			}
			return nil, nil, fmt.Errorf("dial client %d: %w", i, err)
		}
		cts[i] = c
	}
	if err := <-accepted; err != nil {
		srv.Close()
		for _, ct := range cts {
			ct.Close()
		}
		return nil, nil, fmt.Errorf("accept: %w", err)
	}
	return srv, cts, nil
}

// committedWeights returns the run's final global model. The server
// evaluates the committed model after the last round on a replica it never
// trains, so that replica — the only one whose gradients are all zero —
// holds the committed weights when the run returns.
func committedWeights(built []nn.Module) ([]float64, error) {
	var eval nn.Module
	for _, m := range built {
		if untrained(m) {
			if eval != nil {
				return nil, errors.New("more than one untrained model replica; cannot tell the evaluation replica")
			}
			eval = m
		}
	}
	if eval == nil {
		return nil, errors.New("no untrained model replica; cannot find the evaluation replica")
	}
	return nn.FlattenParams(eval, nil), nil
}

func untrained(m nn.Module) bool {
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data() {
			if g != 0 {
				return false
			}
		}
	}
	return true
}

// writeCheckpoint leaves a checkpoint of the committed model in dir, the
// state a server without a write-ahead journal restarts from.
func writeCheckpoint(dir string, weights []float64, rounds int) error {
	j, err := journal.Open(dir)
	if err != nil {
		return err
	}
	cp := &wire.JournalCheckpoint{NextRound: uint32(rounds + 1), Version: uint64(rounds), Weights: weights}
	if err := j.Checkpoint(cp); err != nil {
		j.Close()
		return err
	}
	return j.Close()
}

// recoverServer times a server restart from dir: replay the journal,
// rebuild the server state and load it into a fresh aggregator. It checks
// that the replay found every round committed.
func recoverServer(dir string, cfg core.Config, w0 []float64) (time.Duration, []float64, error) {
	t0 := time.Now()
	j, err := journal.Open(dir)
	if err != nil {
		return 0, nil, err
	}
	defer j.Close()
	rs, err := core.RecoverServer(j.Recovered(), numClients, true)
	if err != nil {
		return 0, nil, err
	}
	agg, err := core.NewAggregator(cfg, w0, numClients)
	if err != nil {
		return 0, nil, err
	}
	if c, ok := agg.(interface{ Close() error }); ok {
		defer c.Close()
	}
	if err := rs.Apply(agg); err != nil {
		return 0, nil, err
	}
	d := time.Since(t0)
	if rs.NextRound != cfg.Rounds+1 || rs.Pending != nil {
		return d, nil, fmt.Errorf("recovery resumes at round %d (pending %v), want %d with nothing pending",
			rs.NextRound, rs.Pending != nil, cfg.Rounds+1)
	}
	return d, agg.Weights(), nil
}

// progress is the RunOptions.Progress writer: the end of every line marks
// the end of a round. It timestamps the line first, then samples the
// server's traffic counters, so per-round bytes are exact deltas.
type progress struct {
	f       *federation
	srv     *rpc.Server
	last    comm.Snapshot
	journal *journal.Journal
	traced  bool // also sample runtime/metrics and the journal
}

func (p *progress) Write(b []byte) (int, error) {
	for _, c := range b {
		if c == '\n' {
			p.line()
		}
	}
	return len(b), nil
}

func (p *progress) line() {
	now := time.Now()
	f := p.f
	f.ends = append(f.ends, now)
	s := p.srv.Stats()
	f.up = append(f.up, s.BytesRecv-p.last.BytesRecv)
	f.down = append(f.down, s.BytesSent-p.last.BytesSent)
	p.last = s
	if !p.traced {
		return
	}
	f.mem = append(f.mem, readMem())
	if p.journal != nil {
		f.journalSeq = append(f.journalSeq, p.journal.Seq())
		f.journalBytes = append(f.journalBytes, dirSize(p.journal.Dir()))
	}
}

// dirSize is the total size of the regular files in dir.
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// roundMillis returns the federation's round times in ms: the intervals
// between consecutive Progress lines. Round 1 has no previous line (its
// interval would include the run's own client construction) and is left
// out.
func (f *federation) roundMillis() []float64 {
	var ms []float64
	for i := 1; i < len(f.ends); i++ {
		ms = append(ms, float64(f.ends[i].Sub(f.ends[i-1]))/1e6)
	}
	return ms
}

// sameBits reports whether a and b hold identical float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
