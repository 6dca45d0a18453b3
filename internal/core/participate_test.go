package core

import (
	"testing"

	"repro/internal/comm"
	mpicomm "repro/internal/comm/mpi"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestParticipateStampsVersionAndRho drives Participate over an mpi pair:
// the update answering a model must carry that model's version, and a
// broadcast penalty must reach the ADMM client before it trains.
func TestParticipateStampsVersionAndRho(t *testing.T) {
	cfg := scenConfig(SchedSyncAll, "")
	cfg.Algorithm = AlgoIIADMM
	cfg = cfg.WithDefaults()
	model := scenFactory()
	w0 := nn.FlattenParams(model, nil)
	client := NewIIADMMClient(0, model, scenFed().Clients[0], cfg, nil, rng.New(1))
	if client.Rho == 3 {
		t.Fatal("test needs a starting rho other than 3")
	}

	st, cts := mpicomm.NewFLWorld(1)
	done := make(chan error, 1)
	go func() { done <- Participate(cfg, client, cts[0], comm.UploadOptions{}) }()
	if err := st.SendTo([]int{0}, &wire.GlobalModel{Round: 1, Version: 7, Rho: 3, Weights: w0}); err != nil {
		t.Fatal(err)
	}
	ups, err := st.GatherFrom([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := ups[0].BaseVersion; got != 7 {
		t.Fatalf("update BaseVersion %d, want 7", got)
	}
	if client.Rho != 3 {
		t.Fatalf("client rho %v, want the broadcast 3", client.Rho)
	}
	if err := st.Broadcast(&wire.GlobalModel{Final: true}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Participate: %v", err)
	}
}
