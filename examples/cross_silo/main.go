// Cross-silo federated learning over real TCP: a server and three clients
// exchange models through the gRPC-substitute RPC transport (length-
// prefixed frames, protobuf-style codec), all within this process so the
// example is self-contained. The server half is core.Serve and each silo
// is core.Participate — the two halves of the round engine, exactly what
// cmd/appfl-server and cmd/appfl-client run across machines.
//
//	go run ./examples/cross_silo
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	appfl "repro"
	"repro/internal/comm"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
)

const (
	numClients = 3
	rounds     = 4
)

func main() {
	cfg := appfl.Config{Algorithm: appfl.AlgoIIADMM, Rounds: rounds, LocalSteps: 2, Epsilon: 10, Seed: 2}.WithDefaults()
	fed := appfl.MNISTFederation(numClients, 480, 120, cfg.Seed)
	factory := appfl.CNNFactory(appfl.CNNConfig{
		InChannels: 1, Height: 28, Width: 28, Classes: 10,
		Conv1: 4, Conv2: 8, Hidden: 32,
	}, cfg.Seed)
	evalModel := factory()
	w0 := nn.FlattenParams(evalModel, nil)

	srv, err := rpc.Listen("127.0.0.1:0", rpc.ServerConfig{
		NumClients:    numClients,
		Rounds:        rounds,
		ModelSize:     len(w0),
		AcceptTimeout: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server listening on %s\n", srv.Addr())

	// Silo processes: dial in, then answer every model with a local update
	// until the final frame arrives.
	var wg sync.WaitGroup
	master := rng.New(cfg.Seed)
	for i := 0; i < numClients; i++ {
		cr := master.Split()
		wg.Add(1)
		go func(i int, cr *rng.RNG) {
			defer wg.Done()
			pipe, err := core.NewClientPipeline(cfg, cr)
			if err != nil {
				log.Fatal(err)
			}
			algo, err := core.NewClient(cfg, i, factory(), fed.Clients[i], w0, pipe, cr)
			if err != nil {
				log.Fatal(err)
			}
			conn, err := rpc.Dial(srv.Addr(), uint32(i), fmt.Sprintf("silo-%d", i))
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()
			if err := core.Participate(cfg, algo, conn, comm.UploadOptions{}); err != nil {
				log.Fatal(err)
			}
		}(i, cr)
	}

	if err := srv.Accept(); err != nil {
		log.Fatal(err)
	}
	res, err := core.Serve(cfg, evalModel, fed.Test, numClients, core.RunOptions{Progress: os.Stdout}, srv)
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	snap := res.Server
	fmt.Printf("TCP traffic at server: sent %d B, received %d B over %d messages\n",
		snap.BytesSent, snap.BytesRecv, snap.MsgsSent+snap.MsgsRecv)
}
