// Package rpc provides a deadline-aware request/response layer on top of
// the ARTP wire protocol: exactly what a MAR offloading runtime needs to
// ship a frame (or feature list) and wait for the recognition result,
// without reinventing correlation, timeouts, or class selection each time.
//
// Requests ride a loss-recovery stream bounded by the call deadline;
// responses ride a second stream in the opposite direction. Every call is
// correlated by a 64-bit id. Calls whose response cannot arrive in time
// fail fast with ErrDeadline — the caller is expected to degrade (reuse
// the previous pose, skip the frame) rather than stall, per the paper's
// graceful-degradation doctrine.
//
// The client side is built to survive hostile networks (Section VI):
// its conn re-binds itself to a fresh socket after outages, calls retry
// with seeded-jitter exponential backoff inside their deadline, slow calls
// can hedge a duplicate request after a fixed delay, and FailoverClient
// dispatches to backup servers, skipping a server whose circuit breaker
// has opened on consecutive failures (the Figure 5a multi-server topology
// on real sockets).
//
// The server side protects itself: every request carries its ARTP priority
// and remaining deadline budget, and an overload.Gate decides — before any
// handler work is spent — whether to run it, queue it, degrade it, or
// refuse it with a typed status the client sees immediately. A draining
// server finishes what it accepted while steering new work to backups.
package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/overload"
	"marnet/internal/vclock"
	"marnet/internal/wire"
)

// Stream ids used on the underlying connection.
const (
	reqStream  = 0x10
	respStream = 0x11
)

// Request layout: [8B call id][1B method][1B priority][4B budget µs].
// The budget is the client's remaining deadline at send time; the server
// anchors the absolute deadline at arrival, so no clock sync is needed.
// Response layout: [8B call id][1B method][1B status][payload...].
//
// Traced calls (nonzero trace id: wire frames with flagTraced set) get an 8-byte timing
// trailer between the response header and the payload:
// [4B queue-wait µs][4B service-time µs]. The client uses it to attribute
// the frame's latency budget (obs.BudgetReport) without clock sync: both
// values are durations measured entirely on the server. Untraced
// responses carry no trailer.
const (
	reqHeader    = 14
	respHeader   = 10
	traceTrailer = 8
)

// MethodProbe is reserved: it bypasses admission control and returns the
// server's health state (healthy/degraded/draining) so clients can steer
// before errors. Application handlers never see it.
const MethodProbe uint8 = 0xFF

// Response status codes.
const (
	statusOK           = 0 // payload is the handler's full answer
	statusDegraded     = 1 // payload valid, but served below full fidelity
	statusShed         = 2 // shed by admission control (queue delay or queue full)
	statusExpired      = 3 // deadline expired before the server could serve
	statusCannotFinish = 4 // service-time estimate exceeds the remaining budget
	statusDraining     = 5 // server draining; only already-admitted work completes
)

// Errors.
var (
	ErrDeadline    = errors.New("rpc: call deadline exceeded")
	ErrShed        = errors.New("rpc: request shed by transport")
	ErrClosed      = errors.New("rpc: endpoint closed")
	ErrTooBig      = errors.New("rpc: payload too large")
	ErrBreakerOpen = errors.New("rpc: circuit breaker open")

	// Server-side admission rejections. Each arrives as an immediate typed
	// response, not a timeout the client discovers a deadline later.
	ErrServerShed    = errors.New("rpc: request shed by server admission control")
	ErrServerExpired = errors.New("rpc: deadline expired before the server could serve")
	ErrCannotFinish  = errors.New("rpc: server predicted the call cannot finish in budget")
	ErrDraining      = errors.New("rpc: server draining")
)

// Handler computes a response for a method and request payload. Handlers
// run behind admission control, in one of the server's slots — except that
// a method measured at under 50 µs a call runs on the goroutine that read
// its request whenever more datagrams wait behind that request, so a
// handler must be safe on either goroutine. req is valid only until the
// handler returns (copy what must outlive the call); the returned slice is
// read until the response has been sent and not kept.
type Handler func(method uint8, req []byte) []byte

// TierHandler is a degradation-aware handler: the gate's ladder tells it
// which fidelity to serve (full / features-only / cached pose). Responses
// below TierFull are marked degraded on the wire.
type TierHandler func(method uint8, req []byte, tier overload.Tier) []byte

// ServerOption tunes a Server at construction.
type ServerOption func(*serverOptions)

type serverOptions struct {
	overload overload.Config
	workers  int
	shards   int
	tiered   TierHandler
	tracer   *obs.Tracer
	clock    vclock.Clock
	pc       wire.PacketConn
	svcModel ServiceModel
}

// WithOverload replaces the default admission configuration (bounded
// per-priority queues, CoDel queue-delay shedding, no ladder).
func WithOverload(cfg overload.Config) ServerOption {
	return func(o *serverOptions) { o.overload = cfg }
}

// WithWorkers sets the server's slots: how many requests it serves at once
// (default 8). The slot count is what turns queue depth into the load
// signal: admitted work waits in the tiered queues, not in hidden
// goroutines, and on sockets a goroutine runs only while its slot has work.
// The slots serve every request but the cheap ones (measured under 50 µs)
// that arrive in a backlogged read batch, which the reader serves itself;
// a slow or not yet measured method always takes a slot.
func WithWorkers(n int) ServerOption {
	return func(o *serverOptions) { o.workers = n }
}

// WithTierHandler installs a degradation-aware handler; it takes
// precedence over the plain Handler for every non-probe method.
func WithTierHandler(h TierHandler) ServerOption {
	return func(o *serverOptions) { o.tiered = h }
}

// WithTracer records a server-side span for every traced call, stitched
// to the client's trace via the ids a flagTraced wire header carries. Traced calls carry a
// timing trailer on the response whether or not a tracer is installed;
// the tracer only controls whether the server keeps its own spans.
func WithTracer(t *obs.Tracer) ServerOption {
	return func(o *serverOptions) { o.tracer = t }
}

// WithClock injects the server's time source (default the system clock).
// It drives deadline anchoring, queue-wait measurement and the admission
// gate, so a server on a virtual clock is fully
// deterministic.
func WithClock(clock vclock.Clock) ServerOption {
	return func(o *serverOptions) { o.clock = clock }
}

// WithPacketConn serves over a caller-supplied transport (e.g. a simulated
// network endpoint) instead of binding a UDP socket; the addr argument to
// NewServer is then ignored, and so is WithShards: the transport is one
// shard. The server owns the transport and closes it.
func WithPacketConn(pc wire.PacketConn) ServerOption {
	return func(o *serverOptions) { o.pc = pc }
}

// WithShards serves the wire datapath across n per-core shards: on Linux
// one SO_REUSEPORT socket per shard (the kernel pins each client flow to
// one shard), elsewhere a hashing demux over one socket. Each shard owns
// its reader goroutine, pacers, band queues and buffer pools; the route
// table is sharded too, so shards share no lock on the packet path. The
// admission gate stays server-wide by design — overload is a property of
// the whole server, not of a shard. It applies to sockets only: a
// WithPacketConn transport (a marsim Endpoint) is one shard whatever n
// says, so simulation stays deterministic.
func WithShards(n int) ServerOption {
	return func(o *serverOptions) { o.shards = n }
}

// ServiceModel declares how long serving a request takes. It replaces
// measured handler wall time: the handler still computes the real response
// (inline, assumed cheap), but its slot is occupied for the modeled
// duration on the server's clock. Under a virtual clock this is what makes
// a 5 ms recognition call cost exactly 5 ms of simulated time and zero wall
// time.
type ServiceModel func(method uint8, req []byte) time.Duration

// WithServiceModel makes service time modeled rather than measured: the
// server pumps the gate exactly as on sockets, but each call it hands a
// slot runs its handler at once and a timer on the server's clock holds
// the slot for the modeled time, so no goroutine is started. Required for
// simulation (a goroutine would escape a single-threaded virtual clock).
func WithServiceModel(m ServiceModel) ServerOption {
	return func(o *serverOptions) { o.svcModel = m }
}

// ServerStats is a snapshot of the server's serving and rejection
// counters. Rejections are split by cause so operators can tell "clients
// are sending dead-on-arrival work" (ExpiredOnArrival) from "we are
// overloaded" (Shed, QueueFull) from "we are shutting down" (Draining).
// The gate counts each refusal once; the six refusal fields are read from
// its counters (Gate).
type ServerStats struct {
	Served   int64 // calls answered with a handler response
	Degraded int64 // of Served, answered below TierFull
	Inline   int64 // of Served, run on the goroutine that read the request
	Probes   int64 // health probes answered

	// ExpiredOnArrival counts requests whose propagated deadline had
	// already passed when the datagram arrived — rejected before any
	// dispatch work was spent on them.
	ExpiredOnArrival int64
	ExpiredInQueue   int64 // deadline passed while queued, before dispatch
	Shed             int64 // queue-delay sheds (ΣCoDelShed) and ladder rejects
	QueueFull        int64 // tier queue at capacity (ΣTailDrop)
	CannotFinish     int64 // estimate did not fit the remaining budget
	Draining         int64 // refused while draining

	Gate overload.GateStats
}

// serverCall is the queued unit of work: the gate's overload.Item (whose
// Job points back at the record) and everything a slot needs to run the
// handler and answer the right peer, in one record recycled once its
// response or refusal is out. req is the record's own copy of the request
// body (the delivered payload is only lent to onMessage), its buffer kept
// across recycling; arrived anchors the queue-wait measurement;
// traceID/spanID carry the client's trace context (zero when untraced);
// inline marks a call the reader serves itself.
type serverCall struct {
	item    overload.Item
	s       *Server
	conn    *wire.Conn
	id      uint64
	req     []byte
	arrived time.Time
	traceID uint64
	spanID  uint64
	inline  bool

	// The service in progress, and (with a ServiceModel) its timer, made
	// once.
	t0     time.Time
	queued time.Duration
	span   *obs.Span
	resp   []byte
	timer  vclock.Timer
	// slot is the call's turn in a slot, bound once so that starting it
	// allocates nothing: the timer callback that ends its modeled service,
	// or on sockets the body of the goroutine that serves it.
	slot func()
}

func (s *Server) getCall() *serverCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		call := s.free[n-1]
		s.free = s.free[:n-1]
		return call
	}
	call := &serverCall{s: s}
	call.item.Job, call.slot = call, call.work
	if s.svcModel != nil {
		call.slot = call.serviceDone
	}
	return call
}

// putCall recycles a record the caller and the gate are both done with.
func (s *Server) putCall(call *serverCall) {
	*call = serverCall{item: overload.Item{Job: call}, s: s, req: call.req[:0], timer: call.timer, slot: call.slot}
	s.mu.Lock()
	s.free = append(s.free, call)
	s.mu.Unlock()
}

// Server answers calls from any number of clients: behind one shared UDP
// socket, each client address gets its own ARTP connection (streams,
// congestion controller, retransmission state). Requests pass through an
// overload.Gate before any handler runs: per-priority bounded queues,
// queue-delay shedding, deadline enforcement, and the drain protocol.
type Server struct {
	mux      *wire.MuxGroup
	handler  Handler
	tiered   TierHandler
	gate     *overload.Gate
	tracer   *obs.Tracer
	clock    vclock.Clock
	svcModel ServiceModel
	wg       sync.WaitGroup // slot goroutines

	mu        sync.Mutex
	stats     ServerStats   // Served, Degraded, Inline and Probes
	freeSlots int           // slots no call holds
	starved   bool          // a pump found no free slot since the last release
	free      []*serverCall // recycled call records
}

// NewServer listens on addr. key (optional) enables AES-GCM sealing.
func NewServer(addr string, key []byte, handler Handler, opts ...ServerOption) (*Server, error) {
	var so serverOptions
	for _, opt := range opts {
		opt(&so)
	}
	if handler == nil && so.tiered == nil {
		return nil, fmt.Errorf("rpc: nil handler")
	}
	if so.workers <= 0 {
		so.workers = 8
	}
	clock := vclock.OrSystem(so.clock)
	if so.overload.Clock == nil {
		so.overload.Clock = clock.Now
	}
	if so.shards <= 0 {
		so.shards = 1
	}
	s := &Server{
		handler:   handler,
		tiered:    so.tiered,
		gate:      overload.NewGate(so.overload),
		tracer:    so.tracer,
		clock:     clock,
		svcModel:  so.svcModel,
		freeSlots: so.workers,
	}
	muxOpts := []wire.MuxOption{wire.WithMuxClock(clock)}
	// StartBudget is only where a conn's budget starts: its controller
	// probes from there toward the rate the client's requests are observed
	// arriving at (core.Controller, "Rate discovery"), so a server answers as
	// fast as it is asked instead of at a number typed here. Rate is inert
	// for a non-discardable stream.
	configFor := func(*net.UDPAddr) wire.Config {
		return wire.Config{
			Streams: []wire.StreamSpec{
				{ID: respStream, Class: core.ClassLossRecovery, Priority: core.PrioHighest,
					Rate: 20e6, Deadline: time.Second},
			},
			StartBudget: 20e6,
			Key:         key,
			OnMessage:   s.onMessage,
			Clock:       clock,
		}
	}
	var mux *wire.MuxGroup
	var err error
	if so.pc != nil {
		mux, err = wire.ListenMuxShardsVia(so.pc, configFor, muxOpts...) // one shard
	} else {
		mux, err = wire.ListenMuxShards(addr, so.shards, configFor, muxOpts...)
	}
	if err != nil {
		s.gate.Close()
		return nil, err
	}
	s.mux = mux
	return s, nil
}

// Addr returns the listening address (shared by every shard).
func (s *Server) Addr() string { return s.mux.LocalAddr().String() }

// Clients reports how many client connections are live across all shards.
func (s *Server) Clients() int { return len(s.Conns()) }

// Conns returns the live client connections across all shards.
func (s *Server) Conns() []*wire.Conn { return s.mux.Conns() }

// Shards reports how many datapath shards the server runs.
func (s *Server) Shards() int { return s.mux.Shards() }

// Served reports how many calls were answered.
func (s *Server) Served() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Served
}

// Stats snapshots the serving and rejection counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	g := s.gate.Stats()
	st.Gate = g
	st.ExpiredOnArrival, st.ExpiredInQueue = g.ExpiredOnArrival, g.ExpiredInQueue
	st.CannotFinish, st.Draining, st.Shed = g.CannotFinish, g.RejectedDraining, g.LadderRejected
	for t := range g.Admission.TailDrop {
		st.QueueFull += g.Admission.TailDrop[t]
		st.Shed += g.Admission.CoDelShed[t]
	}
	return st
}

// PublishMetrics registers the server's serving/rejection counters (and
// its gate's admission counters) with an observability registry as live
// read-through functions: every scrape reports exactly what Stats would.
func (s *Server) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.CounterFunc("mar_rpc_server_served_total", func() int64 { return s.Stats().Served }, labels...)
	reg.CounterFunc("mar_rpc_server_degraded_total", func() int64 { return s.Stats().Degraded }, labels...)
	reg.CounterFunc("mar_rpc_server_inline_total", func() int64 { return s.Stats().Inline }, labels...)
	reg.CounterFunc("mar_rpc_server_probes_total", func() int64 { return s.Stats().Probes }, labels...)
	reg.CounterFunc("mar_rpc_server_expired_on_arrival_total", func() int64 { return s.Stats().ExpiredOnArrival }, labels...)
	reg.CounterFunc("mar_rpc_server_expired_in_queue_total", func() int64 { return s.Stats().ExpiredInQueue }, labels...)
	reg.CounterFunc("mar_rpc_server_shed_total", func() int64 { return s.Stats().Shed }, labels...)
	reg.CounterFunc("mar_rpc_server_queue_full_total", func() int64 { return s.Stats().QueueFull }, labels...)
	reg.CounterFunc("mar_rpc_server_cannot_finish_total", func() int64 { return s.Stats().CannotFinish }, labels...)
	reg.CounterFunc("mar_rpc_server_draining_total", func() int64 { return s.Stats().Draining }, labels...)
	reg.GaugeFunc("mar_rpc_server_clients", func() float64 { return float64(s.Clients()) }, labels...)
	s.gate.PublishMetrics(reg, labels...)
}

// Gate exposes the admission gate (estimator pre-warming, drain control,
// direct stats).
func (s *Server) Gate() *overload.Gate { return s.gate }

// Health reports the probe state clients see.
func (s *Server) Health() overload.Probe { return s.gate.Health() }

// SetDraining flips the drain state: while draining the server refuses
// new calls with a draining status (so failover clients move on
// immediately) but keeps serving everything already admitted.
func (s *Server) SetDraining(on bool) { s.gate.SetDraining(on) }

// WaitDrain blocks until all admitted work has completed or the timeout
// elapses, reporting whether the drain finished.
func (s *Server) WaitDrain(timeout time.Duration) bool { return s.gate.WaitDrain(timeout) }

// Close shuts the server down and waits for its slot goroutines. For a
// graceful stop, SetDraining(true) and WaitDrain first; Close alone leaves
// queued work to be answered onto closed conns.
func (s *Server) Close() error {
	err := s.mux.Close()
	s.gate.Close()
	s.wg.Wait()
	return err
}

func (s *Server) onMessage(m wire.Message) {
	if m.Stream != reqStream || len(m.Payload) < reqHeader {
		return
	}
	conn := m.Conn // the answer goes back on the connection the request came in on
	id := binary.LittleEndian.Uint64(m.Payload)
	method := m.Payload[8]
	prio := core.Priority(m.Payload[9])
	budget := binary.LittleEndian.Uint32(m.Payload[10:14])

	if method == MethodProbe {
		s.mu.Lock()
		s.stats.Probes++
		s.mu.Unlock()
		s.respond(conn, id, method, statusOK, []byte{byte(s.gate.Health())},
			m.TraceID, m.SpanID, 0, 0)
		return
	}

	call := s.getCall()
	call.conn, call.id = conn, id
	call.req = append(call.req, m.Payload[reqHeader:]...) // the one copy: m.Payload is lent
	call.arrived, call.traceID, call.spanID = s.clock.Now(), m.TraceID, m.SpanID
	it := &call.item
	it.Tier, it.Method = prio.AdmissionTier(), method
	if budget > 0 {
		// The budget was the client's remaining deadline when it sent the
		// request; the answer still has to cross the network back, so one
		// estimated one-way trip is charged before anchoring. A request
		// that spent its whole budget in flight is dead on arrival.
		d := time.Duration(budget)*time.Microsecond - conn.SRTT()/2
		it.Deadline = call.arrived.Add(d)
	}
	// Once Admit has queued the record a slot may own it: only an inline
	// admission leaves it to this goroutine.
	var v overload.Verdict
	inline := false
	if s.cheapInline(method, m.Backlog) {
		v, inline = s.gate.AdmitInline(it)
	} else {
		v = s.gate.Admit(it)
	}
	switch {
	case v != overload.Admit:
		s.refuse(it, v)
	case inline:
		call.inline = true
		call.serve()
		call.answer()
	default:
		s.pump()
	}
}

// inlineServiceMax is the service-time line under which the reader
// goroutine serves a request itself instead of handing it to a slot: the
// hand-off it saves costs a call about 50 µs of scheduler wait on a busy
// server, so a method whose estimate is below that is cheaper to run than
// to hand over. Well above the microsecond a recognition stub
// takes, well below anything that sleeps or blocks.
const inlineServiceMax = 50 * time.Microsecond

// cheapInline reports whether a request for method that its reader
// delivered with backlog datagrams behind it may be served on that reader.
// Only when there is a backlog: then the reader is busy anyway and the CPU,
// not the network, is what the next request waits for, while a request
// that arrived alone is better served by a slot in parallel with the
// reader's next read. And only for a method whose measured service
// estimate is under inlineServiceMax, so a slow handler never holds up the
// datagrams behind it. A server with a ServiceModel models service time on
// its slots and never serves inline.
func (s *Server) cheapInline(method uint8, backlog int) bool {
	if backlog == 0 || s.svcModel != nil {
		return false
	}
	est, ok := s.gate.Estimator().Estimate(method)
	return ok && est < inlineServiceMax
}

// pump hands queued work to free slots until either runs out. It runs
// after every admission that queued a request and whenever a slot frees.
// With a ServiceModel the handler runs here and a timer holds the slot for
// the modeled time; on sockets each call it hands a slot starts a
// goroutine, which serves the queue until it finds it empty, so goroutines
// exist only while work is queued.
func (s *Server) pump() {
	for {
		s.mu.Lock()
		if s.freeSlots == 0 {
			s.starved = true
			s.mu.Unlock()
			return
		}
		s.freeSlots--
		s.mu.Unlock()
		call := s.next()
		if call == nil {
			if s.release() {
				continue
			}
			return
		}
		if s.svcModel == nil {
			s.wg.Add(1)
			go call.slot()
			continue
		}
		call.serve()
		service := max(s.svcModel(call.item.Method, call.req), 0)
		call.timer = vclock.Rearm(s.clock, call.timer, service, call.slot)
	}
}

// next takes the next runnable call from the gate, answering every request
// it refused on the way; nil when nothing runnable is queued.
func (s *Server) next() *serverCall {
	run, rejected, ok := s.gate.Next()
	for _, rej := range rejected {
		s.refuse(rej.Item, rej.Verdict)
	}
	if !ok {
		return nil
	}
	return run.Job.(*serverCall)
}

// release frees a slot. It reports whether a pump found every slot taken
// since the last release: a slot freed after its holder found the queue
// empty must then look again, or a request admitted in between would wait
// for the next arrival.
func (s *Server) release() (recheck bool) {
	s.mu.Lock()
	s.freeSlots++
	recheck, s.starved = s.starved, false
	s.mu.Unlock()
	return recheck
}

// serve runs the handler for a call the gate handed over.
func (call *serverCall) serve() {
	s, run := call.s, &call.item
	call.t0 = s.clock.Now()
	call.queued = call.t0.Sub(call.arrived)
	call.span = s.tracer.StartSpan(obs.TraceID(call.traceID))
	if s.tiered != nil {
		call.resp = s.tiered(run.Method, call.req, run.Degrade)
	} else {
		call.resp = s.handler(run.Method, call.req)
	}
}

// answer sends a served call's response, settles it with the gate and
// recycles the record.
func (call *serverCall) answer() {
	s, run := call.s, &call.item
	took := s.clock.Since(call.t0)
	call.span.Stage(obs.StageQueue, call.queued)
	call.span.Stage(obs.StageCompute, took)
	call.span.Finish()
	status := byte(statusOK)
	if run.Degrade != overload.TierFull && run.Degrade != 0 {
		status = statusDegraded
	}
	// Counted before the send, so whoever has seen the response finds it
	// counted; a response that could not be sent is taken back.
	var degraded, inline int64
	if status == statusDegraded {
		degraded = 1
	}
	if call.inline {
		inline = 1
	}
	s.mu.Lock()
	s.stats.Served++
	s.stats.Degraded += degraded
	s.stats.Inline += inline
	s.mu.Unlock()
	if err := s.respond(call.conn, call.id, run.Method, status, call.resp,
		call.traceID, call.spanID, call.queued, took); err != nil {
		s.mu.Lock()
		s.stats.Served--
		s.stats.Degraded -= degraded
		s.stats.Inline -= inline
		s.mu.Unlock()
	}
	s.gate.Done(run, took)
	s.putCall(call)
}

// serviceDone (ServiceModel) fires when a call's modeled service time has
// elapsed: answer, free the slot, look for more work.
func (call *serverCall) serviceDone() {
	s := call.s
	call.answer()
	s.release()
	s.pump()
}

// work (sockets) is a slot's goroutine: it serves its call, then every
// call queued behind it, and frees the slot when the queue is empty.
func (call *serverCall) work() {
	s := call.s
	defer s.wg.Done()
	for c := call; c != nil; c = s.next() {
		c.serve()
		c.answer()
	}
	if s.release() {
		s.pump()
	}
}

// refuse answers a request the gate refused (and counted) with its typed
// status and recycles its record.
func (s *Server) refuse(it *overload.Item, v overload.Verdict) {
	call := it.Job.(*serverCall)
	status := byte(statusShed) // RejectQueueFull, RejectShed and anything new
	switch v {
	case overload.RejectExpired:
		status = statusExpired
	case overload.RejectCannotFinish:
		status = statusCannotFinish
	case overload.RejectDraining:
		status = statusDraining
	}
	// Refusals on traced calls still carry the timing trailer (queue wait
	// up to the refusal, zero service time) so the client's budget
	// attribution can blame the server queue, not the network.
	s.respond(call.conn, call.id, it.Method, status, nil, //nolint:errcheck // best-effort rejection notice
		call.traceID, call.spanID, s.clock.Since(call.arrived), 0)
	s.putCall(call)
}

// frameBufPool recycles request and response assembly buffers. wire.Conn.Send
// copies the bytes into its own pooled payload buffer before returning, so
// the assembly buffer goes straight back on the pool — both paths then
// allocate nothing for payloads within MaxPayload.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, wire.MaxPayload)
	return &b
}}

// respond answers a call. A traced call (traceID != 0) gets its trace
// context echoed in the frame header and the server-measured queue wait and
// service time as a trailer; an untraced response carries neither.
func (s *Server) respond(conn *wire.Conn, id uint64, method, status byte, payload []byte, traceID, spanID uint64, queued, service time.Duration) error {
	pb := frameBufPool.Get().(*[]byte)
	out := (*pb)[:respHeader]
	binary.LittleEndian.PutUint64(out, id)
	out[8] = method
	out[9] = status
	if traceID != 0 {
		out = binary.LittleEndian.AppendUint32(out, clampMicros(queued))
		out = binary.LittleEndian.AppendUint32(out, clampMicros(service))
	} else {
		spanID = 0
	}
	out = append(out, payload...)
	_, err := conn.SendTraced(respStream, out, traceID, spanID)
	*pb = out[:0]
	frameBufPool.Put(pb)
	return err
}

// clampMicros narrows a duration to the trailer's uint32 microsecond
// field (saturating at ~71 minutes, far beyond any call deadline).
func clampMicros(d time.Duration) uint32 {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	if us > math.MaxUint32 {
		us = math.MaxUint32
	}
	return uint32(us)
}

// RetryPolicy bounds per-call retransmission of whole requests.
type RetryPolicy struct {
	// Max is the attempt budget per call (default 1 = no retry). The call
	// deadline is split across remaining attempts, so retries always fit
	// inside it.
	Max int
	// Backoff is the initial retry backoff (default 20 ms); each retry
	// doubles it up to MaxBackoff (default 250 ms), with seeded jitter in
	// [b/2, b].
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// HedgePolicy duplicates slow requests: when a response has not arrived
// after the hedge delay, a second identical request is launched and the
// first response wins.
type HedgePolicy struct {
	// Delay before hedging an attempt (0: no hedging). An attempt whose
	// share of the deadline is no longer than Delay is not hedged.
	Delay time.Duration
}

// ClientStats is a snapshot of a client's counters.
type ClientStats struct {
	Calls      int64 // Call invocations
	Timeouts   int64 // calls that exhausted their deadline
	ShedCalls  int64 // transport-level sheds (per attempt)
	Retries    int64 // extra attempts after a failed one
	Hedges     int64 // duplicate requests launched
	Reconnects int64 // re-binds to a fresh transport at silence verdicts

	Degraded           int64 // responses served below full fidelity
	ServerExpired      int64 // attempts the server declared dead on deadline
	ServerCannotFinish int64 // attempts the server predicted could not finish
}

// callResult is one response off the wire: the server's status byte plus
// whatever payload came with it. Traced responses additionally carry the
// server-measured queue wait and service time from the timing trailer.
type callResult struct {
	status  byte
	payload []byte
	queued  time.Duration
	service time.Duration
}

// Client issues calls to a Server.
type Client struct {
	conn   *wire.Conn
	cfg    ClientConfig
	budget *obs.BudgetTracker
	clock  vclock.Clock

	mu            sync.Mutex
	nextID        uint64
	pending       map[uint64]*callState
	free          []*callState // recycled call states, see callState
	closed        bool
	rng           *rand.Rand
	stats         ClientStats
	drainingUntil time.Time
	slab          []byte // the unused tail of the block small responses are copied into
}

// drainingTTL is how long a draining status keeps steering calls away
// from a server before the hint is considered stale.
const drainingTTL = 2 * time.Second

// ClientConfig tunes a client.
type ClientConfig struct {
	// Key enables AES-GCM sealing (must match the server).
	Key []byte
	// RequestRate is the stream's declared rate in bits/s (default
	// 10 Mb/s — roughly a compressed 30 FPS frame stream).
	RequestRate float64
	// RequestDeadline bounds transport-level retransmission usefulness
	// (default 250 ms).
	RequestDeadline time.Duration
	// StartBudget seeds the congestion controller (default 10 Mb/s).
	StartBudget float64

	// Priority is the ARTP priority stamped on every request (default
	// PrioHighest); the server maps it to an admission tier, so lower
	// priorities are shed first under overload. CallPri overrides it
	// per call.
	Priority core.Priority

	// Keepalive is the heartbeat interval for dead-peer detection and the
	// conn's re-bind (default 250 ms; three silent intervals mean the peer
	// is dead, and the conn moves to a fresh transport).
	Keepalive time.Duration
	// Retry and Hedge make individual calls survive loss bursts and
	// stragglers. Both are off by default.
	Retry RetryPolicy
	Hedge HedgePolicy
	// Seed drives every randomized decision (retry jitter) so chaos runs
	// are reproducible.
	Seed int64
	// OnStateChange observes the conn's liveness (wire.StateDead once per
	// outage, wire.StateActive on recovery, wire.StateClosed at Close).
	OnStateChange func(wire.State)

	// Tracer, when set, mints a span per call, propagates its trace id in
	// the request's wire header (flagTraced set), and turns on per-frame budget
	// attribution: every finished call produces an obs.BudgetReport
	// splitting its latency across queue/compute/network/overhead.
	Tracer *obs.Tracer
	// Budget is the per-frame latency target the reports are judged
	// against (default obs.DefaultBudget, the paper's 75 ms loop).
	Budget time.Duration
	// Metrics, when set alongside Tracer, receives the budget tracker's
	// histograms and blown-frame counters at Dial.
	Metrics *obs.Registry
	// Recorder, when set, is handed to the wire layer (frame-level events)
	// and receives an EvBudgetSplit per finished traced call; a call that
	// blows its budget freezes a snapshot, so the ring around the miss
	// survives. Give it the same Clock as the client.
	Recorder *obs.FlightRecorder
	// SLO, when set alongside Tracer, observes every finished traced
	// call's deadline verdict — the hit/miss stream the burn-rate engine
	// evaluates.
	SLO *obs.SLO

	// Clock injects the client's time source (default the system clock).
	// Deadlines, retry backoff, hedging, a FailoverClient's breaker
	// windows and the draining TTL all run on it, so a client on a
	// virtual clock is fully deterministic.
	Clock vclock.Clock
	// Dialer, when set, replaces the UDP dial (wire.Dial): the hook
	// internal/marsim uses to hand the client a conn over simulated
	// endpoints (wire.DialWith, a fresh one per re-bind). The addr argument
	// to Dial is then only a label.
	Dialer wire.ConnDialer
}

// Dial connects to a server.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.RequestRate <= 0 {
		cfg.RequestRate = 10e6
	}
	if cfg.RequestDeadline <= 0 {
		cfg.RequestDeadline = 250 * time.Millisecond
	}
	if cfg.StartBudget <= 0 {
		cfg.StartBudget = 10e6
	}
	if cfg.Priority == 0 {
		cfg.Priority = core.PrioHighest
	}
	if cfg.Budget <= 0 {
		cfg.Budget = obs.DefaultBudget
	}
	if cfg.Keepalive <= 0 {
		cfg.Keepalive = 250 * time.Millisecond
	}
	c := &Client{
		cfg:     cfg,
		clock:   vclock.OrSystem(cfg.Clock),
		pending: make(map[uint64]*callState),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Tracer != nil {
		c.budget = obs.NewBudgetTracker(cfg.Budget, cfg.Metrics)
	}
	wcfg := wire.Config{
		Streams: []wire.StreamSpec{
			{ID: reqStream, Class: core.ClassLossRecovery, Priority: core.PrioHighest,
				Rate: cfg.RequestRate, Deadline: cfg.RequestDeadline},
		},
		StartBudget:   cfg.StartBudget,
		Key:           cfg.Key,
		OnMessage:     c.onMessage,
		Keepalive:     cfg.Keepalive,
		OnStateChange: cfg.OnStateChange,
		Clock:         cfg.Clock,
		Recorder:      cfg.Recorder,
	}
	var err error
	if cfg.Dialer != nil {
		c.conn, err = cfg.Dialer(wcfg)
	} else {
		c.conn, err = wire.Dial(addr, wcfg)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns a consistent snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.Reconnects = c.conn.ReconnectCount()
	return st
}

// BudgetTracker exposes the per-frame budget attribution state (nil
// unless the client was dialed with a Tracer).
func (c *Client) BudgetTracker() *obs.BudgetTracker { return c.budget }

// KnownDraining reports whether this server recently declared itself
// draining (via a rejection status). FailoverClient consults it
// to steer calls away before they fail.
func (c *Client) KnownDraining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock.Now().Before(c.drainingUntil)
}

func (c *Client) markDraining() {
	c.mu.Lock()
	c.drainingUntil = c.clock.Now().Add(drainingTTL)
	c.mu.Unlock()
}

// Conn is the client's conn, the same one for the client's life: it
// re-binds to a fresh socket after an outage.
func (c *Client) Conn() *wire.Conn { return c.conn }

// Session is the client's conn as a wire.Session handle.
func (c *Client) Session() *wire.Session { return (*wire.Session)(c.conn) }

// Close aborts all pending calls with ErrClosed and closes the
// connection.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	fins := c.failPendingLocked(ErrClosed)
	c.mu.Unlock()
	for _, fin := range fins {
		c.run(fin)
	}
	return c.conn.Close()
}

func (c *Client) onMessage(m wire.Message) {
	if m.Stream != respStream || len(m.Payload) < respHeader {
		return
	}
	id := binary.LittleEndian.Uint64(m.Payload)
	body := m.Payload[respHeader:]
	var queued, service time.Duration
	if m.TraceID != 0 && len(body) >= traceTrailer {
		queued = time.Duration(binary.LittleEndian.Uint32(body)) * time.Microsecond
		service = time.Duration(binary.LittleEndian.Uint32(body[4:])) * time.Microsecond
		body = body[traceTrailer:]
	}
	// body is a slice of the lent m.Payload: the caller gets its own copy
	// below (copyLocked), made only for a call still waiting for it.
	res := callResult{
		status:  m.Payload[9],
		payload: body,
		queued:  queued,
		service: service,
	}
	if res.status == statusDraining {
		c.markDraining()
	}
	c.mu.Lock()
	cs, ok := c.pending[id]
	var fin completion
	if ok {
		delete(c.pending, id)
		res.payload = c.copyLocked(res.payload)
		fin = cs.onResultLocked(id, res)
	}
	c.mu.Unlock()
	c.run(fin)
}

// Small responses are carved out of one shared block rather than each
// allocated: a typical answer (a pose, a label) is tens of bytes, and one
// allocation per call was half of what a call allocates.
const (
	slabResp = 128  // largest response copied into the block
	slabSize = 1024 // bytes per block
)

// copyLocked returns the caller's own copy of a response body. A copy of
// up to slabResp bytes shares its block with other responses, so one kept
// response keeps at most slabSize bytes alive; its capacity is its length,
// so an append by the caller reallocates instead of overwriting a
// neighbour. Caller holds c.mu.
func (c *Client) copyLocked(b []byte) []byte {
	if len(b) == 0 || len(b) > slabResp {
		return bytes.Clone(b)
	}
	if len(b) > len(c.slab) {
		c.slab = make([]byte, slabSize)
	}
	out := c.slab[:len(b):len(b)]
	c.slab = c.slab[len(b):]
	copy(out, b)
	return out
}

// resolveLocked turns a wire response into the caller's result, counting
// server-side rejections. Caller holds c.mu.
func (c *Client) resolveLocked(res callResult) ([]byte, error) {
	switch res.status {
	case statusOK:
		return res.payload, nil
	case statusDegraded:
		c.stats.Degraded++
		return res.payload, nil
	case statusShed:
		return nil, ErrServerShed
	case statusExpired:
		c.stats.ServerExpired++
		return nil, ErrServerExpired
	case statusCannotFinish:
		c.stats.ServerCannotFinish++
		return nil, ErrCannotFinish
	case statusDraining:
		return nil, ErrDraining
	default:
		return nil, fmt.Errorf("rpc: unknown response status %d", res.status)
	}
}

// attemptInfo is what budget attribution needs from the winning attempt:
// its request→response round trip as seen by the client, and the
// server-measured queue/service split from the timing trailer (zero on
// untraced or refused exchanges).
type attemptInfo struct {
	rtt     time.Duration
	queued  time.Duration
	service time.Duration
	hedged  bool // the hedged duplicate produced the winning response
}

// Call sends a request at the client's configured priority and waits up
// to deadline for the response, retrying (per RetryPolicy) with
// seeded-jitter exponential backoff inside the deadline, and hedging
// stragglers (per HedgePolicy).
func (c *Client) Call(method uint8, req []byte, deadline time.Duration) ([]byte, error) {
	return c.CallPri(method, req, c.cfg.Priority, deadline)
}

// CallPri is Call with an explicit ARTP priority: the server admits
// PrioHighest into its most protected tier and sheds PrioLowest first.
// It is a blocking wrapper over CallAsync — do not use it from a
// simulation's event loop (the wait would deadlock virtual time); issue
// CallAsync there instead.
func (c *Client) CallPri(method uint8, req []byte, prio core.Priority, deadline time.Duration) ([]byte, error) {
	w := waiterPool.Get().(*waiter)
	c.CallAsync(method, req, prio, deadline, w.done)
	return w.wait()
}

// waiter is what a blocking call parks on: a one-slot channel and the done
// callback that fills it, bound once and recycled. done runs exactly once
// per call, so a waiter that has been waited on is empty again.
type waiter struct {
	ch   chan callOutcome
	done func([]byte, error)
}

type callOutcome struct {
	resp []byte
	err  error
}

var waiterPool = sync.Pool{New: func() any {
	w := &waiter{ch: make(chan callOutcome, 1)}
	w.done = func(resp []byte, err error) { w.ch <- callOutcome{resp, err} }
	return w
}}

func (w *waiter) wait() ([]byte, error) {
	out := <-w.ch
	waiterPool.Put(w)
	return out.resp, out.err
}

// finishCall closes a traced call's span and converts its measured
// timings into an obs.BudgetReport. The attribution is built so the six
// stages sum exactly to the call's total duration:
//
//	overhead  = total − winning attempt's round trip (failed attempts,
//	            retry backoff, hedge head start — all measured)
//	queue     = server-reported queue wait   (timing trailer)
//	compute   = server-reported service time (timing trailer)
//	net       = min(SRTT, what remains of the round trip), split evenly
//	            into net_up and net_down
//	serialize = the rest: pacing, serialization, scheduling slack
func (c *Client) finishCall(span *obs.Span, win attemptInfo, total time.Duration, attempts int) {
	if span == nil {
		return
	}
	r := obs.BudgetReport{
		Trace:    span.Trace,
		Budget:   c.cfg.Budget,
		Total:    total,
		Queue:    win.queued,
		Compute:  win.service,
		Attempts: attempts,
		Hedged:   win.hedged,
	}
	// No response at all (timeout): the whole call is overhead — there is
	// no attempt round trip to attribute stages inside of.
	overhead := total
	if win.rtt > 0 && win.rtt <= total {
		overhead = total - win.rtt
	}
	r.Overhead = overhead
	// Clamp the server-reported stages into the measured envelope so the
	// sum stays exact even when clock coarseness disagrees across hosts.
	remain := total - overhead
	if r.Queue > remain {
		r.Queue = remain
	}
	remain -= r.Queue
	if r.Compute > remain {
		r.Compute = remain
	}
	remain -= r.Compute
	netEst := c.conn.SRTT()
	if netEst > remain {
		netEst = remain
	}
	r.NetUp = netEst / 2
	r.NetDown = netEst - netEst/2
	r.Serialize = remain - netEst
	for _, st := range r.Stages() {
		span.Stage(st.Name, st.Dur)
	}
	span.Finish()
	c.budget.Observe(r)
	blown := r.Blown()
	if rec := c.cfg.Recorder; rec != nil {
		var fl uint8
		if blown {
			fl = 1
		}
		dom := r.Dominant()
		rec.Record(obs.EvBudgetSplit, fl, uint16(obs.StageIndex(dom.Name)),
			uint32(r.Total.Microseconds()), uint64(dom.Dur.Microseconds()))
		if blown {
			rec.Freeze("budget-blown")
		}
	}
	// The SLO engine sees every verdict; its burn-rate triggers catch
	// erosion that no single blown frame would.
	c.cfg.SLO.Observe(!blown)
}
