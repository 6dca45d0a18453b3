// Asynchronous federated learning on heterogeneous hardware — the paper's
// future-work items 1 (async updates) and the Section IV-E load-imbalance
// observation, combined. Three clients run on simulated A100/V100/CPU
// devices: every update releases an aggregation on its own (the buffered
// scheduler with K = 1, i.e. FedAsync), so the fast client contributes
// many updates while the slow one's arrive stale and are down-weighted by
// (1+staleness)^(−γ), and no release ever blocks on the slowest silo.
//
//	go run ./examples/async_fl
package main

import (
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	appfl "repro"
	"repro/internal/core"
	"repro/internal/hetero"
)

// paperSecond is how long one second of the paper's device timings lasts
// here, so the example finishes in about a second.
const paperSecond = 5 * time.Millisecond

func main() {
	devices := []hetero.Device{hetero.A100, hetero.V100, hetero.CPU}
	fed := appfl.MNISTFederation(len(devices), 480, 160, 8)
	factory := appfl.MLPFactory(28*28, []int{32}, 10, 8)
	cfg := appfl.Config{
		Algorithm: appfl.AlgoFedAvg, LocalSteps: 1, BatchSize: 32, LR: 0.05, Momentum: 0.9,
		Rounds:    24,
		Scheduler: core.SchedBuffered, BufferK: 1, AsyncAlpha: 0.6, AsyncGamma: 0.5,
	}

	// Each device takes its paper-calibrated time per local update.
	updates := make([]atomic.Int64, len(devices))
	delay := func(client, round int) time.Duration {
		updates[client].Add(1)
		return time.Duration(devices[client].Seconds(1) * float64(paperSecond))
	}
	res, err := core.Run(cfg, fed, factory, core.RunOptions{Progress: os.Stdout, ClientDelay: delay})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	for i, dev := range devices {
		fmt.Printf("%-4s trained %2d updates (device: %.2fs/update)\n", dev.Name, updates[i].Load(), dev.Seconds(1))
	}
	fmt.Printf("async federation released %d aggregations, %d of them from stale updates; accuracy %.2f%% loss %.4f\n",
		len(res.Rounds), res.Stale, 100*res.FinalAcc, res.FinalLoss)
	fmt.Printf("A100 is %.2fx faster than V100 (paper §IV-E: 1.64x) — async keeps it busy\n",
		hetero.A100.SpeedupOver(hetero.V100))
}
