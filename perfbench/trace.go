package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// Span names. Each is recorded around one call across a layer boundary,
// by a decorator of that layer's public interface.
const (
	spanDispatch   = "comm.dispatch"    // ServerTransport.SendTo
	spanGatherWait = "comm.gather_wait" // ServerTransport.GatherFrom
	spanDecodeFold = "core.decode_fold" // AdmissionGate acquire → release
	spanRecvWait   = "comm.recv_wait"   // ClientTransport.RecvGlobal
	spanUpload     = "comm.upload"      // ClientTransport.SendUpdate
	spanClientWork = "client.work"      // RecvGlobal returned → SendUpdate returned
	spanForward    = "nn.forward"       // Module.Forward on a client replica
	spanBackward   = "nn.backward"      // Module.Backward on a client replica
	spanEval       = "nn.eval"          // Module.Forward on the server's replica
)

// span is one timed call. Spans of one round share its round number;
// client spans carry the client id, server spans client -1.
type span struct {
	name       string
	round      int
	client     int
	start, end time.Time
	samples    int // batch rows of a forward span
}

func (s span) ms() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// tracer records the spans of one federation in memory. Its decorators
// wrap the transports, the model replicas and the admission gate that
// RunWithTransport is handed; they only take timestamps, so a traced run
// computes exactly what an untraced one does.
type tracer struct {
	mu    sync.Mutex
	spans []span
	round atomic.Int64 // the round the server dispatched last
	// clients maps a client goroutine (by id) to the transport it drives,
	// so a model replica's spans are attributed to the client training it.
	clients sync.Map
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// transports wraps the server transport and every client transport.
func (t *tracer) transports(st comm.ServerTransport, cts []comm.ClientTransport) (comm.ServerTransport, []comm.ClientTransport) {
	out := make([]comm.ClientTransport, len(cts))
	for i, c := range cts {
		out[i] = &tracedClient{ClientTransport: c, t: t, id: i}
	}
	return &tracedServer{ServerTransport: st, t: t}, out
}

func (t *tracer) module(m nn.Module) nn.Module { return &tracedModule{Module: m, t: t} }

func (t *tracer) gate() core.AdmissionGate { return tracedGate{t} }

type tracedServer struct {
	comm.ServerTransport
	t *tracer
}

func (s *tracedServer) SendTo(clients []int, m *wire.GlobalModel) error {
	s.t.round.Store(int64(m.Round))
	t0 := time.Now()
	err := s.ServerTransport.SendTo(clients, m)
	s.t.add(span{name: spanDispatch, round: int(m.Round), client: -1, start: t0, end: time.Now()})
	return err
}

func (s *tracedServer) GatherFrom(clients []int) ([]*wire.LocalUpdate, error) {
	t0 := time.Now()
	ups, err := s.ServerTransport.GatherFrom(clients)
	s.t.add(span{name: spanGatherWait, round: int(s.t.round.Load()), client: -1, start: t0, end: time.Now()})
	return ups, err
}

type tracedGate struct{ t *tracer }

func (g tracedGate) Acquire(int) func() {
	t0 := time.Now()
	round := int(g.t.round.Load())
	return func() {
		g.t.add(span{name: spanDecodeFold, round: round, client: -1, start: t0, end: time.Now()})
	}
}

// tracedClient's fields are touched only by the goroutine driving the
// client, which both receives the model and trains the replica.
type tracedClient struct {
	comm.ClientTransport
	t        *tracer
	id       int
	round    int
	received time.Time
}

func (c *tracedClient) RecvGlobal() (*wire.GlobalModel, error) {
	t0 := time.Now()
	gm, err := c.ClientTransport.RecvGlobal()
	t1 := time.Now()
	if err != nil || gm.Final {
		return gm, err
	}
	c.round, c.received = int(gm.Round), t1
	c.t.clients.Store(goid(), c)
	c.t.add(span{name: spanRecvWait, round: c.round, client: c.id, start: t0, end: t1})
	return gm, nil
}

func (c *tracedClient) SendUpdate(m *wire.LocalUpdate) error {
	t0 := time.Now()
	err := c.ClientTransport.SendUpdate(m)
	t1 := time.Now()
	c.t.add(span{name: spanUpload, round: c.round, client: c.id, start: t0, end: t1})
	c.t.add(span{name: spanClientWork, round: c.round, client: c.id, start: c.received, end: t1})
	return err
}

type tracedModule struct {
	nn.Module
	t *tracer
}

func (m *tracedModule) Forward(x *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	y := m.Module.Forward(x)
	m.t.layerSpan(spanForward, t0, time.Now(), x.Dim(0))
	return y
}

func (m *tracedModule) Backward(dy *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	dx := m.Module.Backward(dy)
	m.t.layerSpan(spanBackward, t0, time.Now(), 0)
	return dx
}

// layerSpan attributes a model span to the client whose goroutine made
// it; a forward pass on any other goroutine is the server's evaluation.
func (t *tracer) layerSpan(name string, start, end time.Time, rows int) {
	if v, ok := t.clients.Load(goid()); ok {
		c := v.(*tracedClient)
		t.add(span{name: name, round: c.round, client: c.id, start: start, end: end, samples: rows})
		return
	}
	t.add(span{name: spanEval, round: int(t.round.Load()), client: -1, start: start, end: end})
}

// goid returns the calling goroutine's id, parsed from the header line of
// its stack trace ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// roundSplit is one traced round divided into named phases, in ms. The
// server phases run back to back between two Progress lines; the client
// phases are means over the clients.
type roundSplit struct {
	round int
	wall  float64 // previous Progress line → this round's line

	// prepare runs from the previous round's line to the SendTo call:
	// cohort selection, the model copy and any downlink encoding.
	prepare, dispatch, gatherWait, decodeFold, commitEval, residual float64

	recvWait, forward, backward, clientOther, upload float64
	work                                             float64 // model received → upload returned
	eval                                             float64 // server-side evaluation (inside commitEval)
	samples                                          int     // local-training rows over all clients
}

// Over the traced rounds, the named server phases must cover the wall time
// to within serverTolerance of it, or serverSlack a round for short rounds,
// whichever is larger; in no round may they exceed it.
const (
	serverTolerance = 0.10
	serverSlack     = 5 * time.Millisecond
)

// splitRounds divides every round after the first into its phases. ends
// holds the Progress line times, one per round, in round order.
func splitRounds(spans []span, ends []time.Time) ([]roundSplit, error) {
	type clientSums struct{ recv, fwd, bwd, up, work float64 }
	var out []roundSplit
	for r := 2; r <= len(ends); r++ {
		rs := roundSplit{round: r, wall: float64(ends[r-1].Sub(ends[r-2])) / 1e6}
		var dispatchStart, foldEnd time.Time
		clients := map[int]*clientSums{}
		for _, s := range spans {
			if s.round != r {
				continue
			}
			var cs *clientSums
			if s.client >= 0 {
				if cs = clients[s.client]; cs == nil {
					cs = &clientSums{}
					clients[s.client] = cs
				}
			}
			switch s.name {
			case spanDispatch:
				rs.dispatch += s.ms()
				if dispatchStart.IsZero() || s.start.Before(dispatchStart) {
					dispatchStart = s.start
				}
			case spanGatherWait:
				rs.gatherWait += s.ms()
			case spanDecodeFold:
				rs.decodeFold += s.ms()
				if s.end.After(foldEnd) {
					foldEnd = s.end
				}
			case spanEval:
				rs.eval += s.ms()
			case spanRecvWait:
				cs.recv += s.ms()
			case spanForward:
				cs.fwd += s.ms()
				rs.samples += s.samples
			case spanBackward:
				cs.bwd += s.ms()
			case spanUpload:
				cs.up += s.ms()
			case spanClientWork:
				cs.work += s.ms()
			}
		}
		if dispatchStart.IsZero() || foldEnd.IsZero() {
			return nil, fmt.Errorf("round %d: no dispatch or decode/fold span", r)
		}
		if len(clients) != numClients {
			return nil, fmt.Errorf("round %d: spans from %d clients, want %d", r, len(clients), numClients)
		}
		rs.prepare = float64(dispatchStart.Sub(ends[r-2])) / 1e6
		rs.commitEval = float64(ends[r-1].Sub(foldEnd)) / 1e6
		rs.residual = rs.wall - (rs.prepare + rs.dispatch + rs.gatherWait + rs.decodeFold + rs.commitEval)
		for id, c := range clients {
			other := c.work - c.fwd - c.bwd - c.up
			if other < 0 {
				return nil, fmt.Errorf("round %d client %d: forward+backward+upload %.3f ms exceed the client span %.3f ms",
					r, id, c.fwd+c.bwd+c.up, c.work)
			}
			n := float64(len(clients))
			rs.recvWait += c.recv / n
			rs.forward += c.fwd / n
			rs.backward += c.bwd / n
			rs.upload += c.up / n
			rs.work += c.work / n
			rs.clientOther += other / n
		}
		out = append(out, rs)
	}
	return out, nil
}

// checkAccounting verifies that the named server phases sum to the
// rounds' wall time within the tolerance.
func checkAccounting(splits []roundSplit) error {
	var wall, residual float64
	for _, rs := range splits {
		if rs.residual < 0 {
			return fmt.Errorf("round %d: named server phases sum to %.3f ms, more than the %.3f ms round",
				rs.round, rs.wall-rs.residual, rs.wall)
		}
		wall += rs.wall
		residual += rs.residual
	}
	slack := float64(serverSlack) / 1e6 * float64(len(splits))
	if residual > max(serverTolerance*wall, slack) {
		return fmt.Errorf("named server phases sum to %.3f ms of %.3f ms over %d rounds (tolerance %.0f%% or %.0f ms a round)",
			wall-residual, wall, len(splits), 100*serverTolerance, float64(serverSlack)/1e6)
	}
	return nil
}

// memSample is a runtime/metrics reading taken at a round end.
type memSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcPauseSec float64 // sum over the pause histogram, at bucket midpoints
}

var memMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readMem() memSample {
	s := make([]metrics.Sample, len(memMetrics))
	for i, name := range memMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	m := memSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
	h := s[2].Value.Float64Histogram()
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300: // open lower bucket
			lo = hi
		case hi > 1e300: // open upper bucket
			hi = lo
		}
		m.gcPauseSec += float64(n) * (lo + hi) / 2
	}
	return m
}
