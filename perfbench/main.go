// Command perfbench is the repository's end-to-end benchmark. Each run
// drives real FedAvg federations — two clients over rpc loopback, through
// core.RunWithTransport — for a fixed time, checks every round, and prints
// one JSON result as its last line. An untraced run (--trace 0) reports the
// end-to-end metrics; a traced run (--trace 1) wraps each layer's public
// interface with timing decorators and reports the per-layer split of the
// rounds plus isolated probes of each layer. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cnn-dp --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: cnn-dp, wide-f16 or wide-f16-journal")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	traced := flag.Int("trace", 0, "1 reports the traced per-layer metrics, 0 the end-to-end metrics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*traced < 0 || *traced > 1 || *seconds < 1) {
		err = errors.New("--trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(maxParallel())
	// Journals and checkpoints live under the checkout's build directory.
	tmp := filepath.Join(".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(pf)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := pf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}()
	}

	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, tmp: tmp}
	var res result
	if *traced == 1 {
		res = b.traced()
	} else {
		res = b.untraced()
	}
	res.print(os.Stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order    []string // metric print order
	notes    []string // run conditions and secondary figures, printed first
	problems []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// print writes the human-readable report and then the JSON line. Values
// that are not finite cannot be JSON numbers; they make the run incorrect.
func (r *result) print(out io.Writer) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("metric %s is %v", name, m.Value)
			r.Metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	if r.Attempted < 1 {
		r.problem("no round attempted")
		r.Attempted = 1
	}
	if r.Failed == 0 && len(r.problems) > 0 {
		r.Failed = 1
	}
	r.Correct = r.Failed == 0 && len(r.problems) == 0
	for _, n := range r.notes {
		fmt.Fprintln(out, "#", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "# FAIL", p)
	}
	fmt.Fprintf(out, "# round_fail_ratio %.6f share (%d of %d rounds)\n",
		float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(out, "%-34s %16.6f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // every value is finite by now
	}
	fmt.Fprintln(out, string(line))
}

// bench runs one workload at one seed for one time budget.
type bench struct {
	w      workload
	seed   uint64
	budget time.Duration
	tmp    string

	res       result
	first     []float64 // final weights of the run's first federation
	loss, acc float64   // the first federation's final model on the check set
}

// minFederations is the fewest federations a run measures, however short
// its budget: set-up and recovery are medians over federations.
const minFederations = 3

// federate runs one federation, checks it, and accounts its rounds.
func (b *bench) federate(w workload, tr *tracer) *federation {
	f, err := runFederation(w, fedOptions{seed: b.seed, tmpDir: b.tmp, trace: tr})
	b.res.Attempted += w.geo.rounds
	failed := b.check(w, f, err)
	b.res.Failed += failed
	if failed > 0 {
		return nil
	}
	return f
}

// check verifies one federation and returns how many of its rounds failed:
// rounds that did not complete, ran without the full cohort or moved the
// wrong number of bytes, plus the last round when the final model is not
// finite, under the accuracy floor, not reproduced by recovery or not the
// same as the run's other federations.
func (b *bench) check(w workload, f *federation, err error) int {
	bad := map[int]bool{}
	last := w.geo.rounds
	if err != nil {
		b.res.problem("%s federation: %v", w.name, err)
		done := 0 // rounds committed before the error
		if f != nil {
			done = len(f.ends)
		}
		return max(last-done, 1)
	}
	dim := len(f.final)
	if len(f.res.Rounds) != last || len(f.ends) != last {
		b.res.problem("%s: %d rounds recorded, %d progress lines, want %d", w.name, len(f.res.Rounds), len(f.ends), last)
		for r := min(len(f.res.Rounds), len(f.ends)) + 1; r <= last; r++ {
			bad[r] = true
		}
	}
	for i, rs := range f.res.Rounds {
		if rs.CohortSize != numClients {
			b.res.problem("%s round %d: cohort %d, want %d", w.name, rs.Round, rs.CohortSize, numClients)
			bad[rs.Round] = true
		}
		if i < len(f.up) {
			for _, e := range []error{
				checkRoundBytes("uplink", f.up[i], dim, w.pipeline == "f16"),
				checkRoundBytes("downlink", f.down[i], dim, w.downlinkF16),
			} {
				if e != nil {
					b.res.problem("%s round %d: %v", w.name, rs.Round, e)
					bad[rs.Round] = true
				}
			}
		}
	}
	if !sameBits(f.recovered, f.final) {
		b.res.problem("%s: recovered weights differ from the committed weights", w.name)
		bad[last] = true
	}
	if b.first == nil {
		// Every federation of a run ends on the same bits (checked below),
		// so the first one's model stands for all in the accuracy check.
		b.first = f.final
		b.loss, b.acc = core.EvaluateWeights(w.newModel(b.seed), f.final, w.checkSet(b.seed), checkSamples)
		if math.IsNaN(b.loss) || math.IsInf(b.loss, 0) || b.acc < w.accFloor {
			b.res.problem("%s: final model has loss %v and accuracy %.4f on %d held-out samples, floor %.2f",
				w.name, b.loss, b.acc, checkSamples, w.accFloor)
			bad[last] = true
		}
	} else if !sameBits(f.final, b.first) {
		b.res.problem("%s: final weights differ between federations of one seed", w.name)
		bad[last] = true
	}
	return len(bad)
}

// loop runs federations until the budget is spent, cycling through the
// given tracing modes (true runs a federation traced).
func (b *bench) loop(modes ...bool) (plain, traced []*federation, tracers []*tracer) {
	start := time.Now()
	for i := 0; time.Since(start) < b.budget || i < minFederations*len(modes); i++ {
		var tr *tracer
		if modes[i%len(modes)] {
			tr = newTracer()
		}
		f := b.federate(b.w, tr)
		if f == nil {
			continue
		}
		if tr != nil {
			traced, tracers = append(traced, f), append(tracers, tr)
		} else {
			plain = append(plain, f)
		}
	}
	return plain, traced, tracers
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() result {
	feds, _, _ := b.loop(false)
	if b.w.journal {
		b.checkControl()
	}
	r := &b.res
	b.noteConditions()
	var rounds, setups, recov, up, down []float64
	for _, f := range feds {
		rounds = append(rounds, f.roundMillis()...)
		setups = append(setups, f.setup.Seconds())
		recov = append(recov, float64(f.recovery)/1e6)
		for i := 1; i < len(f.up); i++ {
			up = append(up, float64(f.up[i]))
			down = append(down, float64(f.down[i]))
		}
	}
	p, tv, ok := tail(rounds)
	r.note("%d federations; %d round times (round 1 of each federation excluded); tail is p%d",
		len(feds), len(rounds), p)
	if !ok {
		r.note("too few rounds for a tail percentile with %d beyond it; tail is the maximum", tailBeyond)
	}
	r.note("final model: accuracy %.4f, loss %.6f on %d held-out samples", b.acc, b.loss, checkSamples)
	sum := 0.0
	for _, ms := range rounds {
		sum += ms
	}
	r.set("round_ms.p50", median(rounds), "ms")
	r.set("round_ms.tail", tv, "ms")
	r.set("samples_per_s", float64(len(rounds)*b.w.samplesPerRound())/(sum/1e3), "samples/s")
	r.set("uplink_bytes_per_round", median(up), "B")
	r.set("downlink_bytes_per_round", median(down), "B")
	r.set("setup_s", median(setups), "s")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.set("recovery_ms", median(recov), "ms")
	return *r
}

func (b *bench) noteConditions() {
	b.res.note("workload %s, seed %d, %d rounds per federation", b.w.name, b.seed, b.w.geo.rounds)
	b.res.note("nproc %d, GOMAXPROCS %d, MaxParallel %d, %d rpc loopback connections, scheduler syncall",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), maxParallel(), numClients)
}

// checkControl runs the journaled workload's control, the same federation
// without a journal, and checks that the journal left the model's bits
// alone.
func (b *bench) checkControl() {
	w := b.w.plain()
	f, err := runFederation(w, fedOptions{seed: b.seed, tmpDir: b.tmp})
	b.res.Attempted += w.geo.rounds
	// The control's own checks must not compare it against the journaled
	// federations' weights: that comparison is the one made below.
	first := b.first
	b.first = nil
	failed := b.check(w, f, err)
	b.first = first
	if failed == 0 && first != nil && !sameBits(f.final, first) {
		b.res.problem("%s: final weights differ from %s at the same seed", b.w.name, w.name)
		failed = 1
	}
	b.res.Failed += failed
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return math.NaN()
}

// traced measures the per-layer metrics: federations alternate between
// untraced and traced, so the tracing overhead compares like with like,
// and isolated probes of each layer follow.
func (b *bench) traced() result {
	plain, traced, tracers := b.loop(false, true)
	r := &b.res
	b.noteConditions()
	r.note("traced run: %d untraced and %d traced federations", len(plain), len(traced))
	var splits []roundSplit
	for i, f := range traced {
		s, err := splitRounds(tracers[i].recorded(), f.ends)
		if err != nil {
			r.problem("traced federation %d: %v", i, err)
			continue
		}
		splits = append(splits, s...)
	}
	if err := checkAccounting(splits); err != nil {
		r.problem("server split: %v", err)
	}
	pick := func(get func(roundSplit) float64) float64 {
		xs := make([]float64, len(splits))
		for i, s := range splits {
			xs[i] = get(s)
		}
		return median(xs)
	}
	r.set("core.prepare_ms", pick(func(s roundSplit) float64 { return s.prepare }), "ms")
	r.set("comm.dispatch_ms", pick(func(s roundSplit) float64 { return s.dispatch }), "ms")
	r.set("comm.gather_wait_ms", pick(func(s roundSplit) float64 { return s.gatherWait }), "ms")
	r.set("core.decode_fold_ms", pick(func(s roundSplit) float64 { return s.decodeFold }), "ms")
	r.set("core.commit_eval_ms", pick(func(s roundSplit) float64 { return s.commitEval }), "ms")
	r.set("core.round_residual_ms", pick(func(s roundSplit) float64 { return s.residual }), "ms")
	r.set("comm.recv_wait_ms", pick(func(s roundSplit) float64 { return s.recvWait }), "ms")
	r.set("nn.forward_ms", pick(func(s roundSplit) float64 { return s.forward }), "ms")
	r.set("nn.backward_ms", pick(func(s roundSplit) float64 { return s.backward }), "ms")
	r.set("core.client_other_ms", pick(func(s roundSplit) float64 { return s.clientOther }), "ms")
	r.set("comm.upload_ms", pick(func(s roundSplit) float64 { return s.upload }), "ms")
	// Workloads that evaluate only after the last round have a median eval
	// time of zero, so eval time is a mean over the traced rounds.
	evalMs := 0.0
	for _, s := range splits {
		evalMs += s.eval / float64(len(splits))
	}
	r.set("nn.eval_ms", evalMs, "ms")
	r.set("nn.train_samples_per_round", pick(func(s roundSplit) float64 { return float64(s.samples) }), "count")

	var allocB, cycles, pauseS, records, walB float64
	var rounds int
	var grew []float64
	for _, f := range traced {
		n := len(f.mem) - 1
		if n < 1 {
			continue
		}
		rounds += n
		allocB += float64(f.mem[n].allocBytes - f.mem[0].allocBytes)
		cycles += float64(f.mem[n].gcCycles - f.mem[0].gcCycles)
		pauseS += f.mem[n].gcPauseSec - f.mem[0].gcPauseSec
		if len(f.journalSeq) > n {
			records += float64(f.journalSeq[n] - f.journalSeq[0])
			for i := 1; i <= n; i++ {
				if d := f.journalBytes[i] - f.journalBytes[i-1]; d > 0 {
					grew = append(grew, float64(d))
				}
			}
		}
	}
	per := func(x float64) float64 {
		if rounds == 0 {
			return math.NaN()
		}
		return x / float64(rounds)
	}
	r.set("runtime.alloc_mb_per_round", per(allocB)/(1<<20), "MB")
	r.set("runtime.gc_cycles_per_round", per(cycles), "count")
	r.set("runtime.gc_pause_ms_per_round", per(pauseS)*1e3, "ms")
	r.set("journal.records_per_round", per(records), "count")
	if len(grew) > 0 {
		walB = median(grew)
	}
	r.set("journal.wal_bytes_per_round", walB, "B")

	var plainMs, tracedMs []float64
	for _, f := range plain {
		plainMs = append(plainMs, f.roundMillis()...)
	}
	for _, f := range traced {
		tracedMs = append(tracedMs, f.roundMillis()...)
	}
	base := median(plainMs)
	r.set("trace.overhead_pct", 100*(median(tracedMs)-base)/base, "%")
	r.note("untraced round_ms.p50 %.3f ms over %d rounds, traced %.3f ms over %d rounds",
		base, len(plainMs), median(tracedMs), len(tracedMs))
	var wall, resid float64
	for _, s := range splits {
		wall += s.wall
		resid += s.residual
	}
	r.note("server split: the residual is %.2f%% of %d traced rounds' wall time (tolerance %.0f%%)",
		100*resid/wall, len(splits), 100*serverTolerance)

	probes, err := runProbes(b.w, b.seed, b.tmp)
	if err != nil {
		r.problem("probes: %v", err)
	}
	for _, p := range probes {
		r.set(p.name, p.value, p.unit)
	}
	return *r
}
