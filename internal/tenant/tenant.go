// Package tenant turns one appfl-server process into an FL-as-a-service
// host: N independent federations (tenants) multiplexed over one shared
// transport, one shared aggregation worker pool, and one journal root.
//
// Each tenant keeps its own core.Config, scheduler, aggregator,
// membership, obligation ledger, and journal directory; the only shared
// resources are the process (listener/broker, CPU) and the fold-capacity
// arbiter. Isolation is structural: tenant routing is keyed off the
// TenantID carried in wire.Join/wire.LocalUpdate and validated at the
// transport edge, so one tenant's faults, benching backoff, round
// timeouts, and quorum failures never touch another tenant's state.
// Fairness is the Arbiter's weighted fair queueing over fold admissions,
// which bounds a small tenant's round latency by the fold in flight
// rather than a big tenant's backlog.
//
// Both mechanisms are timing-only, so every tenant's trajectory is
// bit-identical (barrier schedulers) or tolerance-equal (buffered, whose
// arrival order is inherently timing-dependent) to the same config run on
// a dedicated server.
package tenant

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"repro/internal/comm"
	mpicomm "repro/internal/comm/mpi"
	"repro/internal/comm/pubsub"
	"repro/internal/comm/rpc"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/journal"
	"repro/internal/nn"
)

// Spec is one tenant: its federation, model, run configuration, and its
// slice of the host's shared resources.
type Spec struct {
	Name    string // display name ("" = tenant-<id>)
	Config  core.Config
	Fed     *dataset.Federated
	Factory nn.Factory
	// Weight is the tenant's fairness weight in the shared fold arbiter
	// (values < 1 mean 1).
	Weight int
	// Kills schedules in-process server deaths for this tenant's round
	// loop (see core.RunOptions.Kills). Requires Options.JournalRoot.
	Kills []core.ServerKill
}

// Options configures the host.
type Options struct {
	// Transport selects the shared backend. rpc and pubsub are
	// multi-tenant; mpi is single-tenant only and Validate rejects it for
	// more than one tenant.
	Transport core.Transport
	// JournalRoot, when non-empty, makes every tenant durable: tenant t
	// journals under JournalRoot/tenant-<t>, and a host restarted over
	// the same root recovers every tenant independently.
	JournalRoot string
	// JournalNoSync skips per-append fsyncs (in-process kill tests only).
	JournalNoSync bool
	// CheckpointEvery compacts each tenant's journal every k commits.
	CheckpointEvery int
	// Slots is the number of concurrent fold admissions across all
	// tenants (values < 1 mean 1: strict one-fold-at-a-time fairness).
	Slots int
	// ValidateEvery/MaxParallel/Progress mirror core.RunOptions.
	ValidateEvery int
	MaxParallel   int
	Progress      io.Writer
}

// Host multiplexes the tenants of one FL-as-a-service process.
type Host struct {
	specs []Spec
	opts  Options
}

// JournalDir returns tenant t's journal directory under root.
func JournalDir(root string, t int) string {
	return filepath.Join(root, fmt.Sprintf("tenant-%d", t))
}

// NewHost validates the tenant set and returns a host ready to Run.
func NewHost(specs []Spec, opts Options) (*Host, error) {
	if len(specs) == 0 {
		return nil, errors.New("tenant: host needs at least one tenant")
	}
	if (opts.Transport == core.TransportMPI || opts.Transport == "") && len(specs) > 1 {
		return nil, fmt.Errorf("tenant: the mpi transport is single-tenant (in-process ranks carry no TenantID header); "+
			"%d tenants need the rpc or pubsub transport", len(specs))
	}
	for t := range specs {
		s := &specs[t]
		if s.Name == "" {
			s.Name = fmt.Sprintf("tenant-%d", t)
		}
		if s.Fed == nil || s.Fed.NumClients() == 0 {
			return nil, fmt.Errorf("tenant: %s has no clients", s.Name)
		}
		if s.Factory == nil {
			return nil, fmt.Errorf("tenant: %s has no model factory", s.Name)
		}
		cfg := s.Config.WithDefaults()
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", s.Name, err)
		}
		s.Config = cfg
		if len(s.Kills) > 0 && opts.JournalRoot == "" {
			return nil, fmt.Errorf("tenant: %s schedules kills without Options.JournalRoot", s.Name)
		}
	}
	return &Host{specs: specs, opts: opts}, nil
}

// transports builds the shared backend and hands each tenant its server
// view and client transports. closeFn tears the shared backend down.
func (h *Host) transports() (sts []comm.ServerTransport, cts [][]comm.ClientTransport, closeFn func(), err error) {
	n := len(h.specs)
	sts = make([]comm.ServerTransport, n)
	cts = make([][]comm.ClientTransport, n)
	switch h.opts.Transport {
	case core.TransportPubSub:
		sizes := make([]int, n)
		for t, s := range h.specs {
			sizes[t] = s.Fed.NumClients()
		}
		b, servers, clients, err := pubsub.NewTenantFLBroker(sizes)
		if err != nil {
			return nil, nil, nil, err
		}
		for t := range h.specs {
			sts[t] = servers[t]
			cts[t] = make([]comm.ClientTransport, len(clients[t]))
			for i, c := range clients[t] {
				cts[t][i] = c
			}
		}
		return sts, cts, b.Close, nil
	case core.TransportRPC:
		tspecs := make([]rpc.TenantSpec, n)
		for t, s := range h.specs {
			tspecs[t] = rpc.TenantSpec{
				NumClients: s.Fed.NumClients(),
				Rounds:     s.Config.Rounds,
				ModelSize:  len(nn.FlattenParams(s.Factory(), nil)),
			}
		}
		srv, err := rpc.Listen("127.0.0.1:0", rpc.ServerConfig{Tenants: tspecs})
		if err != nil {
			return nil, nil, nil, err
		}
		acceptErr := make(chan error, 1)
		go func() { acceptErr <- srv.Accept() }()
		var dialWG sync.WaitGroup
		var dialMu sync.Mutex
		var dialErr error
		for t, s := range h.specs {
			cts[t] = make([]comm.ClientTransport, s.Fed.NumClients())
			for i := range cts[t] {
				dialWG.Add(1)
				go func(t, i int) {
					defer dialWG.Done()
					c, err := rpc.DialTenant(srv.Addr(), uint32(t), uint32(i),
						fmt.Sprintf("%s-client-%d", h.specs[t].Name, i))
					dialMu.Lock()
					defer dialMu.Unlock()
					if err != nil {
						dialErr = err
						return
					}
					cts[t][i] = c
				}(t, i)
			}
		}
		dialWG.Wait()
		if err := <-acceptErr; err != nil {
			srv.Close()
			return nil, nil, nil, fmt.Errorf("tenant: accepting clients: %w", err)
		}
		if dialErr != nil {
			srv.Close()
			return nil, nil, nil, fmt.Errorf("tenant: dialing clients: %w", dialErr)
		}
		for t := range h.specs {
			sts[t] = srv.Tenant(t)
		}
		return sts, cts, func() { srv.Close() }, nil
	case core.TransportMPI, "":
		s, cs := mpicomm.NewFLWorld(h.specs[0].Fed.NumClients())
		sts[0] = s
		cts[0] = make([]comm.ClientTransport, len(cs))
		for i, c := range cs {
			cts[0][i] = c
		}
		return sts, cts, func() { s.Close() }, nil
	default:
		return nil, nil, nil, fmt.Errorf("tenant: unknown transport %q", h.opts.Transport)
	}
}

// Run drives every tenant's federation concurrently over the shared
// backend, with every tenant's clients in process, and returns per-tenant
// results in spec order. It is Serve plus the clients: each tenant's
// clients run as core.StartClients goroutines against that tenant's
// client transports. A tenant that fails does not interrupt its
// neighbors: the survivors run to completion, and the joined error names
// each failed tenant.
func (h *Host) Run() ([]*core.Result, error) {
	sts, cts, closeFn, err := h.transports()
	if err != nil {
		return nil, err
	}
	defer closeFn()
	waits := make([]func() error, len(h.specs))
	for t, s := range h.specs {
		w0 := nn.FlattenParams(s.Factory(), nil)
		waits[t], err = core.StartClients(s.Config, s.Fed, s.Factory, w0,
			core.RunOptions{MaxParallel: h.opts.MaxParallel}, cts[t])
		if err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", s.Name, err)
		}
	}
	results, err := h.Serve(sts)
	errs := []error{err}
	for t, res := range results {
		if res == nil {
			continue // a failed tenant's clients are released by closeFn
		}
		if err := waits[t](); err != nil {
			results[t] = nil
			errs = append(errs, fmt.Errorf("tenant: %s: %w", h.specs[t].Name, err))
		}
	}
	return results, errors.Join(errs...)
}

// Serve is the host's server side: it serves tenant t over sts[t], the
// tenant's view of a shared transport the caller built and owns, and
// reaches the clients only through those views. Each tenant runs
// core.Serve with its own journal directory (under Options.JournalRoot),
// its slice of the shared fold arbiter and its name on every progress
// line. Results come back in spec order; a failed tenant has a nil result
// and its error joins the returned one, without interrupting the others.
func (h *Host) Serve(sts []comm.ServerTransport) ([]*core.Result, error) {
	if len(sts) != len(h.specs) {
		return nil, fmt.Errorf("tenant: %d server transports for %d tenants", len(sts), len(h.specs))
	}
	weights := make([]int, len(h.specs))
	for t, s := range h.specs {
		weights[t] = s.Weight
	}
	arb := NewArbiter(h.opts.Slots, weights)

	results := make([]*core.Result, len(h.specs))
	errs := make([]error, len(h.specs))
	var wg sync.WaitGroup
	for t := range h.specs {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			s := h.specs[t]
			ropts := core.RunOptions{
				ValidateEvery: h.opts.ValidateEvery,
				Gate:          arb.Gate(t),
				Kills:         s.Kills,
			}
			if h.opts.Progress != nil {
				ropts.Progress = labeled{s.Name, h.opts.Progress}
			}
			if h.opts.JournalRoot != "" {
				j, err := journal.Open(JournalDir(h.opts.JournalRoot, t))
				if err != nil {
					errs[t] = fmt.Errorf("tenant: %s: %w", s.Name, err)
					return
				}
				j.NoSync = h.opts.JournalNoSync
				defer j.Close()
				ropts.Journal = j
				ropts.CheckpointEvery = h.opts.CheckpointEvery
			}
			res, err := core.Serve(s.Config, s.Factory(), s.Fed.Test, s.Fed.NumClients(), ropts, sts[t])
			if err != nil {
				errs[t] = fmt.Errorf("tenant: %s: %w", s.Name, err)
				return
			}
			results[t] = res
		}(t)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// labeled prefixes each progress line with its tenant's name. The engine
// writes every line in one call, so lines of concurrent tenants never
// interleave mid-line.
type labeled struct {
	name string
	w    io.Writer
}

func (l labeled) Write(p []byte) (int, error) {
	if _, err := fmt.Fprintf(l.w, "%s  %s", l.name, p); err != nil {
		return 0, err
	}
	return len(p), nil
}
