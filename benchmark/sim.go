package main

import (
	"fmt"
	"math/rand"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/phy"
	"marnet/internal/rpc"
)

const (
	simPartition     = 2 * time.Second
	simDrain         = 100 * time.Millisecond // lets the last calls meet their 75 ms deadline
	gateSamplePeriod = 10 * time.Millisecond
	// simCallsInFlight bounds a host's calls in flight: the storm's 1500
	// calls/s each outstanding for at most the 75 ms deadline is 113.
	simCallsInFlight = 256
)

// simRig is the rpc stack on marsim: one goroutine, virtual time.
type simRig struct {
	spec *workloadSpec
	s    *marsim.Scenario
	srv  *rpc.Server
	pool *payloadPool

	hosts []*simHost
	tracing

	rec         *recorder // the open window's, nil between windows
	chunk       int       // slice being simulated
	issuing     bool
	closed      bool
	seq         uint64
	oks         int64
	exhausted   int
	queueDelays []float64
}

type simHost struct {
	r    *simRig
	host *marsim.Host
	cl   *rpc.Client
	ct   *connTracker
	rng  *rand.Rand
	free []*simCall
	tick func()
	n    int // calls issued, for the priority rotation
}

// simCall is one reusable in-flight call of a simulated host.
type simCall struct {
	h      *simHost
	buf    []byte
	seq    uint64
	digest uint64
	t0     time.Time // virtual
	slice  int
	top    bool // issued at PrioHighest
	done   func([]byte, error)
}

func newSimRig(spec *workloadSpec, seed int64, traced bool) (r *simRig, err error) {
	r = &simRig{spec: spec, s: marsim.NewScenario(spec.name, seed), pool: newPayloadPool(seed, spec.mix),
		tracing: newTracing(seed, traced)}
	defer func() {
		if err != nil {
			r.teardown()
		}
	}()
	key := sessionKey(seed)
	serverEp := r.s.Net.NewEndpoint("server", spec.sim.server)
	r.srv, err = rpc.NewServer("sim", key,
		func(_ uint8, req []byte) []byte { return answer(req) },
		rpc.WithPacketConn(serverEp),
		rpc.WithClock(r.s.Clock),
		rpc.WithWorkers(spec.sim.workers),
		rpc.WithServiceModel(func(uint8, []byte) time.Duration { return spec.sim.service }),
		rpc.WithTracer(r.srvTracer))
	if err != nil {
		return r, fmt.Errorf("%s: server: %w", spec.name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < spec.sim.hosts; i++ {
		h := &simHost{r: r, host: r.s.Net.NewHost(fmt.Sprintf("mobile%d", i), spec.sim.link),
			rng: rand.New(rand.NewSource(seed + int64(i) + 1))}
		h.cl, err = rpc.Dial("sim://server", rpc.ClientConfig{
			Key:     key,
			Clock:   r.s.Clock,
			Dialer:  h.host.Dialer(serverEp),
			Seed:    seed + int64(i),
			Retry:   rpc.RetryPolicy{Max: spec.sim.retry},
			Tracer:  r.tracer,
			Metrics: r.reg,
		})
		if err != nil {
			return r, fmt.Errorf("%s: dial %d: %w", spec.name, i, err)
		}
		h.ct = &connTracker{sess: h.cl.Session()}
		for k := 0; k < simCallsInFlight; k++ {
			c := &simCall{h: h, buf: make([]byte, r.pool.maxLen)}
			c.done = func(resp []byte, err error) { c.finish(resp, err) }
			h.free = append(h.free, c)
		}
		h.tick = h.frame
		r.hosts = append(r.hosts, h)
		// Each host issues at its own seeded phase.
		r.s.Sim.Schedule(time.Duration(rng.Int63n(int64(spec.sim.period))), h.tick)
	}
	return r, nil
}

// frame issues one call and schedules the next: an open loop on virtual
// time, so a call is never late and its latency counts from the instant
// it was due.
func (h *simHost) frame() {
	r := h.r
	if r.closed {
		return
	}
	r.s.Sim.Schedule(r.spec.sim.period, h.tick)
	if !r.issuing {
		return
	}
	if r.tracer != nil {
		h.ct.observe() // sessions resume after a partition; see every Conn
	}
	if len(h.free) == 0 {
		r.exhausted++
		return
	}
	c := h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	r.seq++
	c.seq = r.seq
	var req []byte
	req, c.digest = r.pool.stamp(c.buf, h.rng.Intn(len(r.pool.bodies)), c.seq)
	c.t0 = r.s.Clock.Now()
	c.slice = r.chunk
	prio := r.spec.sim.prios[h.n%len(r.spec.sim.prios)]
	h.n++
	c.top = prio == core.PrioHighest
	if r.tracer == nil {
		h.cl.CallAsync(method, req, prio, callDeadline, c.done)
		return
	}
	t := time.Now()
	h.cl.CallAsync(method, req, prio, callDeadline, c.done)
	r.rec.issued(time.Since(t))
}

func (c *simCall) finish(resp []byte, err error) {
	h := c.h
	r := h.r
	h.free = append(h.free, c)
	if r.rec == nil {
		return // torn down with the call in flight
	}
	out := classify(resp, err, c.seq, c.digest)
	switch out {
	case outOK:
		r.oks++
	case outFail:
		r.rec.failure(resp, err)
	}
	r.rec.call(sample{lat: r.s.Clock.Since(c.t0), slice: c.slice, out: out, top: c.top})
}

// script schedules one window's mobility, scaled to its virtual length v
// from virtual time t0: every host hands over to LTE-Direct and back,
// staggered, and walks out of coverage once for simPartition.
func (r *simRig) script(t0, v time.Duration) {
	at := func(share float64, fn func()) {
		r.s.At(t0+time.Duration(share*float64(v)), fn)
	}
	for i, h := range r.hosts {
		host, k := h.host, float64(i)
		at(0.15+0.04*k, func() { host.SetProfile(phy.LTEDirect) })
		at(0.55+0.04*k, func() { host.SetProfile(phy.WiFiLocal) })
		out := t0 + time.Duration((0.30+0.05*k)*float64(v))
		r.s.At(out, func() { host.Partition(true) })
		r.s.At(out+simPartition, func() { host.Partition(false) })
	}
}

func (r *simRig) window(d time.Duration, traced bool) (*windowData, error) {
	rec, err := newRecorder()
	if err != nil {
		return nil, err
	}
	r.enable(traced)
	defer r.enable(false)

	v := time.Duration(float64(d) * r.spec.sim.virtualPerSecond)
	// A slice is what about a sixth of a wall second simulates, or a
	// quarter of a window too short for that.
	width := time.Duration(float64(time.Second) * r.spec.sim.virtualPerSecond / 6)
	if v < 4*width {
		width = v / 4
	}
	n := int(v / width)
	sim := r.s.Sim
	t0 := sim.Now()
	if r.spec.sim.mobility {
		r.script(t0, v)
	}
	r.rec, r.issuing, r.exhausted, r.queueDelays = rec, true, 0, nil
	if traced {
		var sampleGate func()
		sampleGate = func() {
			if r.issuing {
				r.queueDelays = append(r.queueDelays, float64(r.srv.Gate().QueueDelay())/1e3)
				sim.Schedule(gateSamplePeriod, sampleGate)
			}
		}
		sim.Schedule(gateSamplePeriod, sampleGate)
	}

	w := &windowData{rec: rec, timeline: (time.Duration(n) * width).Seconds()}
	start := time.Now()
	for i := 0; i < n; i++ {
		r.chunk = i
		c0, u0 := time.Now(), readUsage()
		if err := sim.RunUntil(t0 + time.Duration(i+1)*width); err != nil {
			return nil, fmt.Errorf("%s: %w", r.spec.name, err)
		}
		wall, u1 := time.Since(c0).Seconds(), readUsage()
		w.slices = append(w.slices, sliceUse{timeline: width.Seconds(), callsWall: wall, useWall: wall,
			cpu: (u1.cpu - u0.cpu).Seconds(), mallocs: float64(u1.mallocs - u0.mallocs)})
	}
	r.issuing = false
	if err := sim.RunUntil(sim.Now() + simDrain); err != nil {
		return nil, fmt.Errorf("%s: %w", r.spec.name, err)
	}
	w.wall = time.Since(start).Seconds()
	r.rec = nil
	w.queueDelays = r.queueDelays
	return w.closed(r.exhausted), nil
}

func (r *simRig) snapshot() layerSnap {
	s := layerSnap{counters: values{}, gauges: values{}}
	var clients []*rpc.Client
	for _, h := range r.hosts {
		addClientStats(s.counters, h.cl.Stats())
		h.ct.addTo(s)
		clients = append(clients, h.cl)
	}
	addServerStats(s, r.srv)
	addBudget(s, r.reg, clients)
	s.counters["obs.spans_dropped"] = r.spansDropped()
	sim, st := r.s.Sim, r.s.Net.Stats()
	s.counters["simnet.events_fired"] = float64(sim.TotalFired())
	s.counters["simnet.events_cancelled"] = float64(sim.TotalCancelled())
	s.counters["marsim.app_tx"] = float64(st.AppTx)
	s.counters["marsim.delivered"] = float64(st.Delivered)
	s.counters["marsim.drop_closed"] = float64(st.DropClosed)
	s.gauges["marsim.trace_mb"] = float64(len(r.s.Trace.Bytes())) / 1e6
	return s
}

func (r *simRig) teardown() {
	r.closed = true
	for _, h := range r.hosts {
		if h.cl != nil {
			h.cl.Close() //nolint:errcheck // teardown
		}
	}
	if r.srv != nil {
		r.srv.Close() //nolint:errcheck // teardown
	}
}

// close tears the stack down, drains the event queue (packets in flight
// land on closed endpoints and are accounted, cancelled timers vanish)
// and checks that nothing leaked.
func (r *simRig) close() (post values, failed []string) {
	snap := r.snapshot()
	if n := snap.counters["wire.auth_failures"]; n != 0 {
		failed = append(failed, fmt.Sprintf("wire.auth_failures = %.0f, want 0", n))
	}
	if served := r.srv.Served(); served < r.oks {
		failed = append(failed, fmt.Sprintf("server served %d calls but clients verified %d responses", served, r.oks))
	}
	r.teardown()
	if err := r.s.Sim.Run(); err != nil {
		failed = append(failed, fmt.Sprintf("drain: %v", err))
	}
	if err := r.s.Net.CheckConservation(); err != nil {
		failed = append(failed, err.Error())
	}
	pending := r.s.Sim.Pending()
	if pending != 0 {
		failed = append(failed, fmt.Sprintf("simnet.pending_end = %d, want 0", pending))
	}
	return values{"simnet.pending_end": float64(pending)}, failed
}

// miniature runs a short copy of the scenario and returns its trace hash:
// the same seed must give the same bytes.
func miniature(spec *workloadSpec, seed int64) (uint64, error) {
	r, err := newSimRig(spec, seed, false)
	if err != nil {
		return 0, err
	}
	w, err := r.window(time.Duration(float64(spec.sim.miniature)/spec.sim.virtualPerSecond), false)
	if err != nil {
		r.teardown()
		return 0, err
	}
	w.rec.free()
	if _, failed := r.close(); len(failed) > 0 {
		return 0, fmt.Errorf("%s miniature: %s", spec.name, failed[0])
	}
	return r.s.Trace.Hash(), nil
}

// setUpSim is a simulated workload's set-up: prove determinism on the
// miniature, then build the scenario that is measured.
func setUpSim(spec *workloadSpec, seed int64, traced bool) (*simRig, error) {
	a, err := miniature(spec, seed)
	if err != nil {
		return nil, err
	}
	b, err := miniature(spec, seed)
	if err != nil {
		return nil, err
	}
	if a != b {
		return nil, fmt.Errorf("%s: seed %d gave trace hashes %016x and %016x; the simulation is not deterministic", spec.name, seed, a, b)
	}
	return newSimRig(spec, seed, traced)
}
