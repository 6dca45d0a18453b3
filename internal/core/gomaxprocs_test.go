package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
)

// runBitsChild is the argument, after the test binary's flags, that makes
// TestRunBitsIndependentOfGOMAXPROCS run the federations and print their
// bits instead of starting the subprocesses.
const runBitsChild = "runbits-child"

// runBits runs a 2-client, 2-round federation of the cnn-dp CNN (the
// paper's CNN at Conv1=4, Conv2=8, Hidden=32, with the clip:1,laplace:5
// uplink) under algo over tr, and returns one line: the TestLoss bits of
// every round and a SHA-256 of the final global weights.
func runBits(t *testing.T, algo string, tr Transport) string {
	train, test := dataset.MNIST(dataset.SynthConfig{Train: 2 * 64, Test: 64, Seed: 3})
	fed := &dataset.Federated{Clients: dataset.PartitionIID(train, 2, rng.New(3)), Test: test}
	shape := nn.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Kernel: 5, Hidden: 32}
	var mu sync.Mutex
	var built []nn.Module
	factory := func() nn.Module {
		m := nn.NewCNN(shape, rng.New(3))
		mu.Lock()
		built = append(built, m)
		mu.Unlock()
		return m
	}
	cfg := Config{Algorithm: algo, Rounds: 2, LocalSteps: 1, BatchSize: 32, Pipeline: "clip:1,laplace:5", Seed: 3}
	dim := len(nn.FlattenParams(nn.NewCNN(shape, rng.New(3)), nil))
	st, cts, err := newServerTransport(tr, 2, dim, cfg.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// RunWithTransport builds the server's replica before it starts any
	// client; the server only evaluates it, and it holds the committed
	// model when the run returns.
	res, err := RunWithTransport(cfg, fed, factory, RunOptions{}, st, cts)
	if err != nil {
		t.Fatal(err)
	}
	eval := built[0]
	for _, p := range eval.Params() {
		for _, g := range p.Grad.Data() {
			if g != 0 {
				t.Fatal("the first replica built has gradients: it is not the server's evaluation replica")
			}
		}
	}
	var b strings.Builder
	for _, r := range res.Rounds {
		fmt.Fprintf(&b, "%#x ", math.Float64bits(r.TestLoss))
	}
	h := sha256.New()
	for _, w := range nn.FlattenParams(eval, nil) {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(w)))
	}
	fmt.Fprintf(&b, "%x", h.Sum(nil))
	return b.String()
}

// TestRunBitsIndependentOfGOMAXPROCS re-executes the test binary at
// GOMAXPROCS 1, 2 and 4; each run trains the same cnn-dp federation under
// FedAvg and under IIADMM (the paper's Algorithm 1), each over mpi and
// rpc. The per-round test losses and the final weights must be the same
// bits in every process and over both transports: no kernel, reduction or
// scheduling decision may depend on the core count.
func TestRunBitsIndependentOfGOMAXPROCS(t *testing.T) {
	algos := []string{AlgoFedAvg, AlgoIIADMM}
	transports := []Transport{TransportMPI, TransportRPC}
	if flag.Arg(0) == runBitsChild {
		fmt.Printf("gomaxprocs %d\n", runtime.GOMAXPROCS(0))
		for _, algo := range algos {
			for _, tr := range transports {
				fmt.Printf("%s %s %s\n", algo, tr, runBits(t, algo, tr))
			}
		}
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, procs := range []int{1, 2, 4} {
		cmd := exec.Command(exe, "-test.run=^TestRunBitsIndependentOfGOMAXPROCS$", "--", runBitsChild)
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v\n%s%s", procs, err, out, stderr.String())
		}
		n := len(algos) * len(transports)
		lines := strings.Split(string(out), "\n")
		if len(lines) < 1+n || lines[0] != fmt.Sprintf("gomaxprocs %d", procs) {
			t.Fatalf("GOMAXPROCS %d: unexpected child output\n%s", procs, out)
		}
		got := strings.Join(lines[1:1+n], "\n")
		t.Logf("GOMAXPROCS %d:\n%s", procs, got)
		for a, algo := range algos {
			mpi, rpc := lines[1+2*a], lines[2+2*a]
			if !strings.HasPrefix(mpi, algo+" mpi ") || !strings.HasPrefix(rpc, algo+" rpc ") {
				t.Fatalf("GOMAXPROCS %d: unexpected child output\n%s", procs, out)
			}
			if strings.TrimPrefix(mpi, algo+" mpi ") != strings.TrimPrefix(rpc, algo+" rpc ") {
				t.Fatalf("GOMAXPROCS %d: %s over mpi and rpc differs:\n%s", procs, algo, got)
			}
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS %d ends on other bits than GOMAXPROCS 1:\n%s\nwant\n%s", procs, got, want)
		}
	}
}
