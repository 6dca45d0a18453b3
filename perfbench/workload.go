package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
)

// numClients is the federation size of every workload: two clients, so two
// TCP loopback connections, under the closed-loop syncall scheduler (each
// round waits for both clients).
const numClients = 2

// geometry sizes one workload's federation. The benchmark runs the full
// geometry; the smoke tests shrink it.
type geometry struct {
	trainPerClient int // local training samples per client
	test           int // samples of the server's per-round evaluation
	rounds         int // rounds per federation
	hidden         int // hidden width of the wide MLP (cnn-dp ignores it)
}

// workload is one federation shape the benchmark measures. BENCHMARK.json
// says why each was chosen.
type workload struct {
	name string
	cnn  bool // the paper's CNN; otherwise the wide 784→hidden→10 MLP
	geo  geometry

	batch       int
	pipeline    string // client uplink pipeline spec
	downlinkF16 bool
	evalEvery   bool // evaluate every round; otherwise only after the last

	// journal makes the server durable through an fsync'd write-ahead
	// journal that compacts into a checkpoint every checkpointEvery commits.
	journal         bool
	checkpointEvery int

	// accFloor is the lowest accuracy of the final model on the check set
	// that a correct run reaches.
	accFloor float64
}

// checkSamples is the size of the held-out set the final model's accuracy
// is checked on, outside the timed rounds.
const checkSamples = 256

// cnnShape is the paper's CNN at the Fig. 2 laptop widths (dim 51,450).
var cnnShape = nn.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Kernel: 5, Hidden: 32}

// workloads lists the benchmark's workloads in the order BENCHMARK.json
// names them.
var workloads = []workload{
	{
		name:      "cnn-dp",
		cnn:       true,
		geo:       geometry{trainPerClient: 256, test: 256, rounds: 8},
		batch:     32,
		pipeline:  "clip:1,laplace:5",
		evalEvery: true,
		accFloor:  0.5,
	},
	{
		name: "wide-f16",
		// Evaluating on 4 samples keeps the last round, which evaluates,
		// from standing apart from the others in the tail.
		geo:         geometry{trainPerClient: 4, test: 4, rounds: 16, hidden: 2048},
		batch:       4,
		pipeline:    "f16",
		downlinkF16: true,
		accFloor:    0.2,
	},
	{
		name:        "wide-f16-journal",
		geo:         geometry{trainPerClient: 4, test: 4, rounds: 16, hidden: 2048},
		batch:       4,
		pipeline:    "f16",
		downlinkF16: true,
		journal:     true,
		// A checkpoint every third commit puts one in a third of the
		// rounds: the tail percentile falls among them instead of on the
		// edge between rounds with and without one.
		checkpointEvery: 3,
		accFloor:        0.2,
	},
}

// lookupWorkload returns the workload with the given name.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// plain returns w without its journal: the configuration whose final model
// a journaled workload must reproduce bit for bit.
func (w workload) plain() workload {
	w.journal, w.checkpointEvery = false, 0
	return w
}

// config is the run contract of one federation at the given seed.
func (w workload) config(seed uint64) core.Config {
	return core.Config{
		Algorithm:   core.AlgoFedAvg,
		Scheduler:   core.SchedSyncAll,
		Rounds:      w.geo.rounds,
		LocalSteps:  1,
		BatchSize:   w.batch,
		Pipeline:    w.pipeline,
		DownlinkF16: w.downlinkF16,
		Seed:        seed,
	}.WithDefaults()
}

// validateEvery is the RunOptions cadence of server-side evaluation; the
// last round always evaluates.
func (w workload) validateEvery() int {
	if w.evalEvery {
		return 1
	}
	return w.geo.rounds
}

// data synthesizes the federation's inputs from seed: MNIST-shaped
// samples split IID across the clients, plus the server's test set.
func (w workload) data(seed uint64) *dataset.Federated {
	train, test := dataset.MNIST(dataset.SynthConfig{
		Train: numClients * w.geo.trainPerClient,
		Test:  w.geo.test,
		Seed:  seed,
	})
	return &dataset.Federated{
		Clients: dataset.PartitionIID(train, numClients, rng.New(seed)),
		Test:    test,
	}
}

// newModel builds one replica, initialized from seed.
func (w workload) newModel(seed uint64) nn.Module {
	r := rng.New(seed ^ 0x6d6f64656c) // "model"
	if w.cnn {
		return nn.NewCNN(cnnShape, r)
	}
	return nn.NewMLP(28*28, []int{w.geo.hidden}, 10, r)
}

// checkSet is the test set of the accuracy check: samples no client
// trains on, drawn from the same test stream as the federation's own
// (smaller) evaluation set.
func (w workload) checkSet(seed uint64) dataset.Dataset {
	_, test := dataset.MNIST(dataset.SynthConfig{Train: 1, Test: checkSamples, Seed: seed})
	return test
}

// samplesPerRound is the local-training sample count of one round.
func (w workload) samplesPerRound() int { return numClients * w.geo.trainPerClient }
