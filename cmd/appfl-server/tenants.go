package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	appfl "repro"
	"repro/internal/comm"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tenant"
)

// tenantSpecJSON is one tenant's entry in the -tenants config file. Zero
// fields take the same defaults as the single-tenant flags.
type tenantSpecJSON struct {
	Name      string  `json:"name"`
	Clients   int     `json:"clients"`
	Rounds    int     `json:"rounds"`
	Algorithm string  `json:"algorithm"`
	Rho       float64 `json:"rho"`
	Zeta      float64 `json:"zeta"`
	Seed      uint64  `json:"seed"`
	Pipeline  string  `json:"pipeline"`
	Train     int     `json:"train"`
	Test      int     `json:"test"`
	// Weight is the tenant's share of the host's fold capacity under
	// contention (values < 1 mean 1).
	Weight int `json:"weight"`
}

// tenantsFileJSON is the -tenants config file: one FL-as-a-service host
// serving every listed federation.
type tenantsFileJSON struct {
	// Slots is the number of folds the host admits concurrently across
	// all tenants (values < 1 mean 1: strict fair alternation).
	Slots   int              `json:"slots"`
	Tenants []tenantSpecJSON `json:"tenants"`
}

func (s tenantSpecJSON) withDefaults(i int) tenantSpecJSON {
	if s.Name == "" {
		s.Name = fmt.Sprintf("tenant-%d", i)
	}
	if s.Clients == 0 {
		s.Clients = 2
	}
	if s.Rounds == 0 {
		s.Rounds = 5
	}
	if s.Algorithm == "" {
		s.Algorithm = "iiadmm"
	}
	if s.Rho == 0 {
		s.Rho = 2
	}
	if s.Zeta == 0 {
		s.Zeta = 14
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Train == 0 {
		s.Train = 960
	}
	if s.Test == 0 {
		s.Test = 240
	}
	return s
}

// runTenantHost is appfl-server's -tenants mode: one process, one
// listening socket, N independent federations served by the tenant host.
// Each tenant gets its own round engine, journal directory (under
// -journal, when set), and slice of the shared fold capacity; clients
// address their tenant with appfl-client -tenant.
func runTenantHost(path, addr string, timeout time.Duration, journalRoot string, checkpointEvery int) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var file tenantsFileJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", path, err))
	}
	if len(file.Tenants) == 0 {
		fatal(fmt.Errorf("%s lists no tenants", path))
	}

	specs := make([]tenant.Spec, len(file.Tenants))
	tspecs := make([]rpc.TenantSpec, len(file.Tenants))
	total := 0
	for i, spec := range file.Tenants {
		spec = spec.withDefaults(i)
		cfg := appfl.Config{
			Algorithm: spec.Algorithm, Rounds: spec.Rounds, Rho: spec.Rho,
			Zeta: spec.Zeta, Seed: spec.Seed, Pipeline: spec.Pipeline,
		}.WithDefaults()
		if err := cfg.Validate(); err != nil {
			fatal(fmt.Errorf("tenant %s: %w", spec.Name, err))
		}
		if journalRoot != "" {
			if err := core.ValidateJournalConfig(cfg); err != nil {
				fatal(fmt.Errorf("tenant %s: %w", spec.Name, err))
			}
		}
		factory := cnnFactory(spec.Seed)
		specs[i] = tenant.Spec{
			Name:    spec.Name,
			Config:  cfg,
			Fed:     appfl.MNISTFederation(spec.Clients, spec.Train, spec.Test, spec.Seed),
			Factory: factory,
			Weight:  spec.Weight,
		}
		tspecs[i] = rpc.TenantSpec{NumClients: spec.Clients, Rounds: cfg.Rounds, ModelSize: nn.NumParams(factory())}
		total += spec.Clients
	}
	host, err := tenant.NewHost(specs, tenant.Options{
		Transport:       core.TransportRPC,
		JournalRoot:     journalRoot,
		CheckpointEvery: checkpointEvery,
		Slots:           file.Slots,
		Progress:        os.Stdout,
	})
	if err != nil {
		fatal(err)
	}

	srv, err := rpc.Listen(addr, rpc.ServerConfig{Tenants: tspecs, AcceptTimeout: timeout})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Printf("appfl-server: listening on %s for %d tenants (%d clients total)\n",
		srv.Addr(), len(specs), total)
	if err := srv.Accept(); err != nil {
		fatal(err)
	}
	fmt.Println("appfl-server: all clients of all tenants joined")

	views := make([]comm.ServerTransport, len(specs))
	for i := range views {
		views[i] = srv.Tenant(i)
	}
	results, err := host.Serve(views)
	if err != nil {
		fatal(err)
	}
	for i, res := range results {
		if s := res.Soak; s != nil && s.Recoveries > 0 {
			fmt.Printf("appfl-server: tenant %s resumed from its journal (%d records replayed)\n", specs[i].Name, s.ReplayedRecords)
		}
	}
	snap := srv.Stats()
	fmt.Printf("appfl-server: done; sent %d B, received %d B\n", snap.BytesSent, snap.BytesRecv)
}
