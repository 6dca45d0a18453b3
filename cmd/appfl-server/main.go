// Command appfl-server runs the federated-learning server of a real
// cross-silo deployment over TCP RPC (the gRPC-substitute transport).
// Start it first, then launch one appfl-client per silo with matching
// -dataset/-algorithm/-seed flags; the shared seed is how all parties
// agree on the initial model, exactly as APPFL distributes a common
// starting checkpoint.
//
// Example (server plus two local clients):
//
//	appfl-server -addr :9000 -clients 2 -rounds 5 &
//	appfl-client -addr localhost:9000 -id 0 -clients 2 &
//	appfl-client -addr localhost:9000 -id 1 -clients 2
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	appfl "repro"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/nn"
)

func main() {
	addr := flag.String("addr", ":9000", "listen address")
	clients := flag.Int("clients", 2, "number of clients to wait for")
	rounds := flag.Int("rounds", 5, "communication rounds")
	algorithm := flag.String("algorithm", "iiadmm", "fedavg | iceadmm | iiadmm")
	rho := flag.Float64("rho", 2, "IADMM penalty rho")
	zeta := flag.Float64("zeta", 14, "IADMM proximity zeta")
	train := flag.Int("train", 960, "total training samples (for validation-set seed parity)")
	test := flag.Int("test", 240, "server-side validation samples")
	seed := flag.Uint64("seed", 1, "shared seed (must match clients)")
	pipe := flag.String("pipeline", "", "update-pipeline spec (must match the clients)")
	downF16 := flag.Bool("downlink-f16", false, "broadcast the global model as float16 (~4x downlink cut)")
	timeout := flag.Duration("accept-timeout", 2*time.Minute, "join deadline")
	aggWorkers := flag.Int("agg-workers", 0, "sharded aggregation width (0 = GOMAXPROCS, 1 = serial)")
	aggPrecision := flag.String("agg-precision", appfl.AggF64, "aggregation accumulator precision: f64 (bit-identical default) or f32 (FedAvg family only)")
	aggShards := flag.Int("shards", 0, "hierarchical aggregation tier width (0/1 = single aggregator; FedAvg family only, bit-identical at any width)")
	chunk := flag.Int("chunk", 0, "gather uplinks as streamed chunks of this many coordinates (0 = monolithic; clients must pass the same -chunk)")
	subset := flag.Float64("subset", 0, "accept LoRA-style partial uploads covering this coordinate fraction (0 = dense; clients must pass the same -subset)")
	journalDir := flag.String("journal", "", "write-ahead round journal directory: crash-recoverable rounds (fedavg only, no -chunk/-subset/-shards)")
	checkpointEvery := flag.Int("checkpoint-every", 10, "compact the journal every k committed rounds (0 = never)")
	savePath := flag.String("save", "", "write the final model checkpoint here (atomic tmp+fsync+rename)")
	tenantsPath := flag.String("tenants", "", "multi-tenant host mode: JSON config listing the federations to serve (see docs/operations.md); incompatible with per-federation flags")
	flag.Parse()

	if *tenantsPath != "" {
		// Tenant mode: every per-federation knob comes from the config file;
		// only host-level flags apply. Reject silently-ignored flags loudly.
		allowed := map[string]bool{"tenants": true, "addr": true, "accept-timeout": true, "journal": true, "checkpoint-every": true}
		flag.Visit(func(f *flag.Flag) {
			if !allowed[f.Name] {
				fatal(fmt.Errorf("-%s does not apply in -tenants mode; set per-tenant options in %s", f.Name, *tenantsPath))
			}
		})
		runTenantHost(*tenantsPath, *addr, *timeout, *journalDir, *checkpointEvery)
		return
	}

	cfg := appfl.Config{Algorithm: *algorithm, Rounds: *rounds, Rho: *rho, Zeta: *zeta, Seed: *seed, Pipeline: *pipe, DownlinkF16: *downF16, AggWorkers: *aggWorkers, AggPrecision: *aggPrecision, AggShards: *aggShards, StreamChunk: *chunk, SubsetFrac: *subset}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if *journalDir != "" {
		if err := core.ValidateJournalConfig(cfg); err != nil {
			fatal(err)
		}
	}

	// The validation set and the initial model derive from the shared seed.
	fed := appfl.MNISTFederation(*clients, *train, *test, *seed)
	model := cnnFactory(*seed)()

	// Durable state: a non-empty journal means this process is a restart,
	// and the engine resumes the run where the journal left it.
	opts := core.RunOptions{Progress: os.Stdout, CheckpointEvery: *checkpointEvery}
	if *journalDir != "" {
		jnl, err := journal.Open(*journalDir)
		if err != nil {
			fatal(err)
		}
		defer jnl.Close()
		opts.Journal = jnl
	}
	srv, err := rpc.Listen(*addr, rpc.ServerConfig{
		NumClients:    *clients,
		Rounds:        cfg.Rounds,
		ModelSize:     nn.NumParams(model),
		AcceptTimeout: *timeout,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Printf("appfl-server: listening on %s for %d clients (%s, T=%d, dim=%d)\n",
		srv.Addr(), *clients, cfg.Algorithm, cfg.Rounds, nn.NumParams(model))
	if err := srv.Accept(); err != nil {
		fatal(err)
	}
	fmt.Println("appfl-server: all clients joined")

	res, err := core.Serve(cfg, model, fed.Test, *clients, opts, srv)
	if err != nil {
		fatal(err)
	}
	if s := res.Soak; s != nil && s.Recoveries > 0 {
		fmt.Printf("appfl-server: resumed from the journal (%d records replayed)\n", s.ReplayedRecords)
	}
	if *savePath != "" {
		// Serve leaves the committed model in its evaluation replica.
		var buf bytes.Buffer
		if err := nn.SaveParams(&buf, model); err != nil {
			fatal(err)
		}
		if err := journal.AtomicWriteFile(*savePath, buf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("appfl-server: model checkpoint saved to %s\n", *savePath)
	}
	fmt.Printf("appfl-server: done; sent %d B, received %d B\n", res.Server.BytesSent, res.Server.BytesRecv)
}

// cnnFactory is the federation's model: the paper's MNIST CNN, whose
// initial weights every party derives from the shared seed.
func cnnFactory(seed uint64) appfl.Factory {
	return appfl.CNNFactory(appfl.CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Hidden: 32}, seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "appfl-server:", err)
	os.Exit(1)
}
