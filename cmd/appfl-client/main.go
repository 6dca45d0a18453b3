// Command appfl-client joins a cross-silo federation served by
// appfl-server. Each client owns one shard of the synthetic corpus,
// derived deterministically from the shared seed — in a real deployment
// this is where an institution's private data would live. Hyperparameter
// flags must match the server's.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	appfl "repro"
	"repro/internal/comm"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
)

func main() {
	addr := flag.String("addr", "localhost:9000", "server address")
	id := flag.Int("id", 0, "client id in [0, clients)")
	clients := flag.Int("clients", 2, "total clients in the federation")
	algorithm := flag.String("algorithm", "iiadmm", "fedavg | iceadmm | iiadmm")
	rho := flag.Float64("rho", 2, "IADMM penalty rho")
	zeta := flag.Float64("zeta", 14, "IADMM proximity zeta")
	localSteps := flag.Int("local-steps", 10, "local steps L")
	batch := flag.Int("batch", 64, "mini-batch size")
	eps := flag.Float64("eps", 0, "privacy budget (0 = non-private)")
	pipe := flag.String("pipeline", "", "update-pipeline spec, e.g. clip:1,laplace:0.5,topk:0.1 (must match the server)")
	train := flag.Int("train", 960, "total training samples (shared)")
	test := flag.Int("test", 240, "test samples (shared; unused locally)")
	seed := flag.Uint64("seed", 1, "shared seed (must match server)")
	name := flag.String("name", "", "client display name")
	chunk := flag.Int("chunk", 0, "stream the uplink as chunks of this many coordinates (must match the server)")
	subset := flag.Float64("subset", 0, "upload only this coordinate fraction, LoRA-style (must match the server)")
	tenantID := flag.Int("tenant", 0, "tenant id on a multi-tenant server (0 = default tenant; -id/-clients are then local to the tenant)")
	flag.Parse()

	if *id < 0 || *id >= *clients {
		fatal(fmt.Errorf("id %d out of range [0,%d)", *id, *clients))
	}
	if *tenantID < 0 {
		fatal(fmt.Errorf("tenant %d is negative", *tenantID))
	}
	cfg := appfl.Config{
		Algorithm:  *algorithm,
		LocalSteps: *localSteps,
		BatchSize:  *batch,
		Rho:        *rho,
		Zeta:       *zeta,
		Seed:       *seed,
	}.WithDefaults()
	if *eps > 0 {
		cfg.Epsilon = *eps
	}
	cfg.Pipeline = *pipe
	cfg.StreamChunk = *chunk
	cfg.SubsetFrac = *subset
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	fed := appfl.MNISTFederation(*clients, *train, *test, *seed)
	factory := appfl.CNNFactory(appfl.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, *seed)
	model := factory()
	w0 := nn.FlattenParams(model, nil)

	// Per-client deterministic randomness: stream id within the federation.
	master := rng.New(cfg.Seed)
	var cr *rng.RNG
	for i := 0; i <= *id; i++ {
		cr = master.Split()
	}
	clientPipe, err := core.NewClientPipeline(cfg, cr)
	if err != nil {
		fatal(err)
	}
	algo, err := core.NewClient(cfg, *id, model, fed.Clients[*id], w0, clientPipe, cr)
	if err != nil {
		fatal(err)
	}

	display := *name
	if display == "" {
		display = fmt.Sprintf("client-%d", *id)
	}
	conn, err := rpc.DialTenant(*addr, uint32(*tenantID), uint32(*id), display)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	ack := conn.Config()
	fmt.Printf("%s: joined %s (%d clients, %d rounds, dim %d, local data %d samples)\n",
		display, *addr, ack.NumClients, ack.Rounds, ack.ModelSize, fed.Clients[*id].Len())

	// The engine's client loop: one update per model received, stamped
	// with the model's version, until the server's final broadcast.
	if err := core.Participate(cfg, algo, conn,
		comm.UploadOptions{AckTimeout: 30 * time.Second, MaxRetries: 3}); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: training complete\n", display)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "appfl-client:", err)
	os.Exit(1)
}
