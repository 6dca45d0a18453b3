package main

// Out-of-process tests: appfl-server and appfl-client are built into a
// temporary directory and run as real processes over loopback TCP. Every
// federation must end on the model an in-process core.Run of the same
// configuration commits, bit for bit, because both run the same engine.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	appfl "repro"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/nn"
	"repro/internal/tenant"
)

// procs pins GOMAXPROCS in the test process and in every child process.
const procs = 2

// fedFlags is one federation's shape, as both binaries take it on the
// command line.
type fedFlags struct {
	clients, rounds, train, test int
	seed                         uint64
}

// Client-side hyperparameters shared by every federation here.
const (
	localSteps = 1
	batch      = 16
)

func (f fedFlags) config() core.Config {
	return core.Config{Algorithm: core.AlgoFedAvg, Rounds: f.rounds, LocalSteps: localSteps,
		BatchSize: batch, Rho: 2, Zeta: 14, Seed: f.seed}
}

func (f fedFlags) federation() *appfl.Federated {
	return appfl.MNISTFederation(f.clients, f.train, f.test, f.seed)
}

func (f fedFlags) clientArgs(addr string, id int) []string {
	return []string{"-addr", addr, "-id", fmt.Sprint(id), "-clients", fmt.Sprint(f.clients),
		"-algorithm", "fedavg", "-local-steps", fmt.Sprint(localSteps), "-batch", fmt.Sprint(batch),
		"-train", fmt.Sprint(f.train), "-test", fmt.Sprint(f.test), "-seed", fmt.Sprint(f.seed)}
}

// inProcessLoss runs f through core.Run over the rpc transport and
// returns its final held-out loss.
func inProcessLoss(t *testing.T, f fedFlags) float64 {
	t.Helper()
	res, err := core.Run(f.config(), f.federation(), cnnFactory(f.seed), core.RunOptions{Transport: core.TransportRPC})
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	return res.FinalLoss
}

// heldOutLoss evaluates weights on f's held-out set the way the engine
// evaluates a committed round.
func heldOutLoss(f fedFlags, w []float64) float64 {
	loss, _ := core.EvaluateWeights(cnnFactory(f.seed)(), w, f.federation().Test, 256)
	return loss
}

// journalWeights recovers the committed model from a journal directory
// and checks that every round committed.
func journalWeights(t *testing.T, dir string, f fedFlags) []float64 {
	t.Helper()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rs, err := core.RecoverServer(j.Recovered(), f.clients, true)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NextRound != f.rounds+1 || rs.Pending != nil {
		t.Fatalf("journal %s resumes at round %d (pending %v), want %d", dir, rs.NextRound, rs.Pending != nil, f.rounds+1)
	}
	agg, err := core.NewAggregator(f.config().WithDefaults(), nn.FlattenParams(cnnFactory(f.seed)(), nil), f.clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Apply(agg); err != nil {
		t.Fatal(err)
	}
	return agg.Weights()
}

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

// binaries builds appfl-server and appfl-client into a temporary
// directory and returns their paths.
func binaries(t *testing.T) (server, client string) {
	t.Helper()
	dir := t.TempDir()
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(gobin, "build", "-o", dir, "repro/cmd/appfl-server", "repro/cmd/appfl-client").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return filepath.Join(dir, "appfl-server"), filepath.Join(dir, "appfl-client")
}

func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	return cmd
}

// logBuffer collects a process's output from several goroutines.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// serve starts the server, waits for its listening line and returns the
// address it bound; done yields the server's exit error.
func serve(t *testing.T, bin string, args ...string) (addr string, done <-chan error, output *logBuffer) {
	t.Helper()
	cmd := command(bin, append([]string{"-addr", "127.0.0.1:0", "-accept-timeout", "30s"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	output = &logBuffer{}
	cmd.Stderr = output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	lines := bufio.NewScanner(stdout)
	for addr == "" && lines.Scan() {
		fmt.Fprintln(output, lines.Text())
		if _, rest, ok := strings.Cut(lines.Text(), "listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" {
		cmd.Wait()
		t.Fatalf("server never listened:\n%s", output)
	}
	ch := make(chan error, 1)
	go func() {
		for lines.Scan() {
			fmt.Fprintln(output, lines.Text())
		}
		ch <- cmd.Wait()
	}()
	return addr, ch, output
}

// federate runs one client process per (tenant, id) pair against addr and
// waits for the clients, then for the server.
func federate(t *testing.T, client, addr string, done <-chan error, output *logBuffer, tenants []fedFlags) {
	t.Helper()
	var clients []*exec.Cmd
	for tn, f := range tenants {
		for id := 0; id < f.clients; id++ {
			args := append(f.clientArgs(addr, id), "-tenant", fmt.Sprint(tn))
			clients = append(clients, command(client, args...))
		}
	}
	outs := make([]chan []byte, len(clients))
	for i, c := range clients {
		outs[i] = make(chan []byte, 1)
		go func(c *exec.Cmd, out chan<- []byte) {
			b, err := c.CombinedOutput()
			if err != nil {
				b = append(b, fmt.Sprintf("exit: %v\n", err)...)
			}
			out <- b
		}(c, outs[i])
	}
	for i, out := range outs {
		if b := <-out; clients[i].ProcessState == nil || !clients[i].ProcessState.Success() {
			t.Fatalf("client %d failed:\n%s", i, b)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server: %v\n%s", err, output)
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("server did not exit\n%s", output)
	}
}

func TestBinaries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	server, client := binaries(t)
	f := fedFlags{clients: 2, rounds: 3, train: 120, test: 60, seed: 3}
	serverArgs := func(f fedFlags) []string {
		return []string{"-clients", fmt.Sprint(f.clients), "-rounds", fmt.Sprint(f.rounds),
			"-algorithm", "fedavg", "-train", fmt.Sprint(f.train), "-test", fmt.Sprint(f.test),
			"-seed", fmt.Sprint(f.seed)}
	}
	loadSaved := func(t *testing.T, path string) []float64 {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m := cnnFactory(f.seed)()
		if err := nn.LoadParams(bytes.NewReader(raw), m); err != nil {
			t.Fatal(err)
		}
		return nn.FlattenParams(m, nil)
	}

	// Single mode: the saved model is the in-process run's final model.
	t.Run("single", func(t *testing.T) {
		save := filepath.Join(t.TempDir(), "model.ckpt")
		addr, done, out := serve(t, server, append(serverArgs(f), "-save", save)...)
		federate(t, client, addr, done, out, []fedFlags{f})
		got, want := heldOutLoss(f, loadSaved(t, save)), inProcessLoss(t, f)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("saved model's loss %v, in-process final loss %v", got, want)
		}
	})

	// -journal: the journal recovers exactly the saved model.
	t.Run("journal", func(t *testing.T) {
		dir := t.TempDir()
		save := filepath.Join(dir, "model.ckpt")
		jdir := filepath.Join(dir, "journal")
		addr, done, out := serve(t, server, append(serverArgs(f), "-save", save, "-journal", jdir)...)
		federate(t, client, addr, done, out, []fedFlags{f})
		saved := loadSaved(t, save)
		if !sameBits(journalWeights(t, jdir, f), saved) {
			t.Fatal("journal-recovered weights differ from the saved model")
		}
		if got, want := heldOutLoss(f, saved), inProcessLoss(t, f); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("journaled run's loss %v, in-process final loss %v", got, want)
		}
	})

	// -tenants with -journal: each tenant's journal recovers that tenant's
	// in-process final model.
	t.Run("tenants", func(t *testing.T) {
		tenants := []fedFlags{f, {clients: 2, rounds: 2, train: 120, test: 60, seed: 4}}
		var file tenantsFileJSON
		for i, tf := range tenants {
			file.Tenants = append(file.Tenants, tenantSpecJSON{Name: fmt.Sprintf("t%d", i), Clients: tf.clients,
				Rounds: tf.rounds, Algorithm: "fedavg", Seed: tf.seed, Train: tf.train, Test: tf.test})
		}
		dir := t.TempDir()
		raw, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		cfgPath := filepath.Join(dir, "tenants.json")
		if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		root := filepath.Join(dir, "journal")
		addr, done, out := serve(t, server, "-tenants", cfgPath, "-journal", root)
		federate(t, client, addr, done, out, tenants)
		for i, tf := range tenants {
			got := heldOutLoss(tf, journalWeights(t, tenant.JournalDir(root, i), tf))
			if want := inProcessLoss(t, tf); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tenant %d: recovered model's loss %v, in-process final loss %v", i, got, want)
			}
		}
	})

	// A journal-incompatible configuration fails before the listener opens.
	t.Run("reject", func(t *testing.T) {
		out, err := command(server, "-addr", "127.0.0.1:0", "-journal", t.TempDir(), "-algorithm", "iiadmm").CombinedOutput()
		if err == nil {
			t.Fatalf("-journal -algorithm iiadmm exited cleanly:\n%s", out)
		}
		if bytes.Contains(out, []byte("listening")) {
			t.Fatalf("server listened before rejecting its configuration:\n%s", out)
		}
	})
}
