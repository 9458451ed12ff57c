package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"marnet/internal/obs"
	"marnet/internal/rpc"
	"marnet/internal/wire"
)

// maxSessions is the reference host's CPU count. The workloads are sized
// for it and never use more client sessions than the host has CPUs, so
// the generator cannot crowd out the stack it is measuring.
const maxSessions = 2

// requestRate is the rate every client declares for its request stream
// and seeds its congestion controller with. The default (10 Mb/s, one
// compressed 30 FPS stream) would pace a back-to-back 600 B call loop to
// ~2000 calls/s per session: the benchmark would then report the pacer's
// configured rate, not the cost of the stack. Loopback has no link rate
// to respect, so the declared rate is set out of the way.
const requestRate = 1e9

func sessions() int {
	if n := runtime.NumCPU(); n < maxSessions {
		return n
	}
	return maxSessions
}

// layerSnap is what the layers' exported surfaces report at one instant:
// counters accumulate from set-up, gauges are current values.
type layerSnap struct {
	counters values
	gauges   values
}

// sliceUse is one cut of a measurement window: how much workload time it
// covered and what the process spent in it. A slice's calls are counted
// over callsWall seconds and its resources over useWall seconds; on the
// simulator both are the chunk's wall time, on sockets calls fall into
// exact one-second buckets while the usage sampler wakes a little after
// each boundary.
type sliceUse struct {
	timeline, callsWall, useWall float64 // seconds
	cpu                          float64 // CPU seconds, user + system
	mallocs                      float64 // heap objects allocated
}

// windowData is what one measurement window produced.
type windowData struct {
	rec *recorder
	// slices are the full cuts of the window; a sample's slice index
	// points into it, and samples beyond it finished after the window
	// closed.
	slices []sliceUse
	// timeline is how much workload time the window covered, wall how
	// long that took from the first issue to the last completion.
	timeline, wall float64
	offered        int       // calls the generator was due to issue
	lostCalls      int       // calls the generator could not issue or record
	queueDelays    []float64 // traced windows: gate queue delay samples, µs
}

// rig is one workload, set up and warm.
type rig interface {
	// window drives the workload for d (tracing the calls when traced)
	// and returns what it observed.
	window(d time.Duration, traced bool) (*windowData, error)
	// snapshot reads every layer's counters and gauges.
	snapshot() layerSnap
	// close tears the rig down and returns what can only be read from
	// a quiet stack, and the output checks that failed, one line each.
	close() (post values, failed []string)
}

// tracing is what a rig built for a traced run carries: the client and
// server tracers, which start disabled so that warm-up and the untraced
// reference window run the untraced code path on the same rig, and the
// registry the clients' budget trackers publish on. The zero value is an
// untraced rig; every method is then a no-op (obs tracers are nil-safe).
type tracing struct {
	tracer, srvTracer *obs.Tracer
	reg               *obs.Registry
}

func newTracing(seed int64, traced bool) tracing {
	if !traced {
		return tracing{}
	}
	t := tracing{tracer: obs.NewTracer(0, seed), srvTracer: obs.NewTracer(0, seed+1), reg: obs.NewRegistry()}
	t.enable(false)
	return t
}

func (t tracing) enable(on bool) {
	t.tracer.SetEnabled(on)
	t.srvTracer.SetEnabled(on)
}

func (t tracing) spansDropped() float64 { return float64(t.tracer.Dropped() + t.srvTracer.Dropped()) }

// sessionKey is the AEAD key both ends of a rig share, drawn from seed.
func sessionKey(seed int64) []byte {
	key := make([]byte, 16)
	rand.New(rand.NewSource(seed ^ 0x6b6579)).Read(key) //nolint:errcheck // math/rand never fails
	return key
}

// closed fills in what both rigs count when a window closes: exhausted
// is how many calls fell due with no context free to issue them.
func (w *windowData) closed(exhausted int) *windowData {
	w.offered = w.rec.calls.n + exhausted
	w.lostCalls = exhausted
	if w.rec.overflow {
		w.lostCalls++
	}
	return w
}

// socketRig is a real rpc server and its client sessions on loopback
// sockets.
type socketRig struct {
	spec    *workloadSpec
	seed    int64
	srv     *rpc.Server
	clients []*rpc.Client
	conns   []*connTracker
	pool    *payloadPool
	tracing

	windows int           // windows run so far; each draws from its own random stream
	seq     atomic.Uint64 // last sequence number issued
	oks     atomic.Int64  // verified responses since set-up, warm-up included
}

// warmup is how long a rig runs its workload before it counts as set up.
func warmup(seconds time.Duration) time.Duration {
	w := seconds / 12
	if w > time.Second {
		w = time.Second
	}
	return w
}

func newSocketRig(spec *workloadSpec, seed int64, seconds time.Duration, traced bool) (r *socketRig, err error) {
	r = &socketRig{spec: spec, seed: seed, pool: newPayloadPool(seed, spec.mix), tracing: newTracing(seed, traced)}
	defer func() {
		if err != nil {
			r.teardown()
		}
	}()
	key := sessionKey(seed)
	r.srv, err = rpc.NewServer("127.0.0.1:0", key, func(_ uint8, req []byte) []byte { return answer(req) },
		rpc.WithShards(1), rpc.WithTracer(r.srvTracer))
	if err != nil {
		return r, fmt.Errorf("%s: server: %w", spec.name, err)
	}
	for i := 0; i < sessions(); i++ {
		cl, err := rpc.Dial(r.srv.Addr(), rpc.ClientConfig{
			Key:         key,
			Seed:        seed + int64(i),
			RequestRate: requestRate,
			StartBudget: requestRate,
			Tracer:      r.tracer,
			Metrics:     r.reg,
		})
		if err != nil {
			return r, fmt.Errorf("%s: dial %d: %w", spec.name, i, err)
		}
		r.clients = append(r.clients, cl)
		r.conns = append(r.conns, &connTracker{sess: cl.Session()})
	}
	w, err := r.window(warmup(seconds), false)
	if err != nil {
		return r, err
	}
	w.rec.free()
	return r, nil
}

func (r *socketRig) window(d time.Duration, traced bool) (*windowData, error) {
	rec, err := newRecorder()
	if err != nil {
		return nil, err
	}
	r.enable(traced)
	defer r.enable(false)

	width, n := cut(d)
	r.windows++
	g := &loadGen{spec: r.spec, clients: r.clients, pool: r.pool, seed: r.seed + 7919*int64(r.windows),
		spans: r.tracer != nil, seq: &r.seq, oks: &r.oks, rec: rec, sliceWidth: width}
	w := &windowData{rec: rec, timeline: d.Seconds()}

	var stopSampler chan struct{}
	var samplerDone chan []float64
	if traced {
		stopSampler, samplerDone = make(chan struct{}), make(chan []float64)
		go sampleQueueDelay(r.srv, stopSampler, samplerDone)
	}
	g.start = time.Now()
	slicesDone := make(chan []sliceUse)
	go sampleSlices(g.start, width, n, slicesDone)
	g.runClosed(d)
	w.wall = time.Since(g.start).Seconds()
	w.slices = <-slicesDone
	if traced {
		close(stopSampler)
		w.queueDelays = <-samplerDone
	}
	return w.closed(0), nil
}

// cut divides a window into slices: one second each, or a quarter of a
// window too short for that (the smoke test's).
func cut(d time.Duration) (width time.Duration, n int) {
	width = time.Second
	if d < 4*time.Second {
		width = d / 4
	}
	return width, int(d / width)
}

// sampleSlices reads the process's resource use at every slice boundary
// of a window that opened at start and sends the n slices on done. It
// reads no more than a system call and two runtime counters a second, and
// never stops the world.
func sampleSlices(start time.Time, width time.Duration, n int, done chan<- []sliceUse) {
	out := make([]sliceUse, 0, n)
	prev, prevAt := readUsage(), time.Now()
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * width)))
		cur, at := readUsage(), time.Now()
		out = append(out, sliceUse{
			timeline: width.Seconds(), callsWall: width.Seconds(), useWall: at.Sub(prevAt).Seconds(),
			cpu: (cur.cpu - prev.cpu).Seconds(), mallocs: float64(cur.mallocs - prev.mallocs),
		})
		prev, prevAt = cur, at
	}
	done <- out
}

// sampleQueueDelay reads the gate's standing queue delay every 10 ms
// until stop closes, then sends the samples (µs) on done.
func sampleQueueDelay(srv *rpc.Server, stop <-chan struct{}, done chan<- []float64) {
	var out []float64
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			out = append(out, float64(srv.Gate().QueueDelay())/1e3)
		case <-stop:
			done <- out
			return
		}
	}
}

func (r *socketRig) snapshot() layerSnap {
	s := layerSnap{counters: values{}, gauges: values{}}
	for _, cl := range r.clients {
		addClientStats(s.counters, cl.Stats())
	}
	addServerStats(s, r.srv)
	for _, ct := range r.conns {
		ct.addTo(s)
	}
	addBudget(s, r.reg, r.clients)
	s.counters["obs.spans_dropped"] = r.spansDropped()
	return s
}

func addClientStats(c values, st rpc.ClientStats) {
	c["rpc.calls"] += float64(st.Calls)
	c["rpc.retries"] += float64(st.Retries)
	c["rpc.hedges"] += float64(st.Hedges)
	c["rpc.timeouts"] += float64(st.Timeouts)
	c["rpc.transport_sheds"] += float64(st.ShedCalls)
	c["wire.reconnects"] += float64(st.Reconnects)
}

func addServerStats(s layerSnap, srv *rpc.Server) {
	st := srv.Stats()
	c := s.counters
	c["rpc.server_served"] = float64(st.Served)
	c["rpc.server_expired_on_arrival"] = float64(st.ExpiredOnArrival)
	c["rpc.server_expired_in_queue"] = float64(st.ExpiredInQueue)
	c["rpc.server_queue_full"] = float64(st.QueueFull)
	c["rpc.server_cannot_finish"] = float64(st.CannotFinish)
	c["rpc.server_shed"] = float64(st.Shed)
	c["overload.admitted"] = float64(st.Gate.Admitted)
	c["overload.completed"] = float64(st.Gate.Completed)
	c["overload.cannot_finish"] = float64(st.Gate.CannotFinish)
	c["overload.expired_on_arrival"] = float64(st.Gate.ExpiredOnArrival)
	c["overload.expired_in_queue"] = float64(st.Gate.ExpiredInQueue)
	var shed, full int64
	for _, n := range st.Gate.Admission.CoDelShed {
		shed += n
	}
	for _, n := range st.Gate.Admission.TailDrop {
		full += n
	}
	c["overload.shed"] = float64(shed + st.Gate.LadderRejected)
	c["overload.queue_full"] = float64(full)
	if est, ok := srv.Gate().Estimator().Estimate(method); ok {
		s.gauges["overload.estimate_us"] = float64(est) / 1e3
	}
}

// addBudget reads the clients' budget attribution: the stage histograms
// they share on reg, the blown-frame count, and the largest difference
// between a report's total and the sum of its stages (which must be 0).
func addBudget(s layerSnap, reg *obs.Registry, clients []*rpc.Client) {
	if reg == nil {
		return
	}
	for _, p := range reg.Gather() {
		if p.Name != "mar_budget_stage_ns" || p.Hist == nil {
			continue
		}
		for _, l := range p.Labels {
			if l.Key == "stage" {
				s.gauges["obs.budget."+l.Value+"_us_p50"] = float64(p.Hist.Quantile(0.5)) / 1e3
			}
		}
	}
	var maxErr time.Duration
	for _, cl := range clients {
		bt := cl.BudgetTracker()
		s.counters["obs.budget.blown"] += float64(bt.Blown())
		for _, rep := range bt.Reports() {
			e := rep.Sum() - rep.Total
			if e < 0 {
				e = -e
			}
			if e > maxErr {
				maxErr = e
			}
		}
	}
	s.gauges["obs.budget.sum_err_max"] = float64(maxErr)
}

// connTracker follows one session's wire counters across reconnects: a
// resumed session gets a fresh Conn whose counters restart at zero, so
// the tracker retires the old Conn's final reading before moving on.
type connTracker struct {
	sess    *wire.Session
	cur     *wire.Conn
	retired values
}

// observe notices a replaced connection. On a rig where sessions resume
// (simdrive) it is called often enough to see every one.
func (ct *connTracker) observe() {
	conn := ct.sess.Conn()
	if conn == ct.cur {
		return
	}
	if ct.cur != nil {
		if ct.retired == nil {
			ct.retired = values{}
		}
		for k, v := range readConn(ct.cur) {
			if wireCounters[k] != "" {
				ct.retired[k] += v
			}
		}
	}
	ct.cur = conn
}

// wireCounters maps the registry names of a Conn's cumulative counters to
// the snapshot's; every other name Conn.PublishMetrics registers is a gauge.
var wireCounters = map[string]string{
	"mar_wire_frames_sent_total":       "wire.frames_sent",
	"mar_wire_auth_failures_total":     "wire.auth_failures",
	"mar_wire_batch_writes_total":      "wire.batch_writes",
	"mar_wire_batch_frames_total":      "wire.batch_frames",
	"mar_wire_frames_lost_total":       "wire.lost_frames",
	"mar_wire_stream_shed_total":       "wire.stream_shed",
	"mar_wire_stream_retx_total":       "wire.retx",
	"mar_wire_stream_duplicates_total": "wire.duplicates",
}

// readConn gathers a connection's metrics through the same surface an
// operator scrapes, summing the per-stream series so that no stream id is
// known here.
func readConn(c *wire.Conn) values {
	reg := obs.NewRegistry()
	c.PublishMetrics(reg)
	out := values{}
	for _, p := range reg.Gather() {
		if p.Hist == nil {
			out[p.Name] += p.Value
		}
	}
	return out
}

func (ct *connTracker) addTo(s layerSnap) {
	ct.observe()
	now := readConn(ct.cur)
	for from, to := range wireCounters {
		s.counters[to] += now[from] + ct.retired[from]
	}
	// Gauges: the worst session is the one a tail metric feels.
	s.gauges["wire.srtt_us"] = max(s.gauges["wire.srtt_us"], now["mar_wire_srtt_seconds"]*1e6)
	s.gauges["wire.loss_rate_ewma"] = max(s.gauges["wire.loss_rate_ewma"], now["mar_wire_loss_rate"])
	if b, ok := s.gauges["wire.budget_bps"]; !ok || now["mar_wire_budget_bps"] < b {
		s.gauges["wire.budget_bps"] = now["mar_wire_budget_bps"]
	}
}

func (r *socketRig) teardown() {
	for _, cl := range r.clients {
		cl.Close() //nolint:errcheck // teardown
	}
	if r.srv != nil {
		r.srv.Close() //nolint:errcheck // teardown
	}
}

func (r *socketRig) close() (post values, failed []string) {
	snap := r.snapshot()
	if n := snap.counters["wire.auth_failures"]; n != 0 {
		failed = append(failed, fmt.Sprintf("wire.auth_failures = %.0f, want 0", n))
	}
	if served, oks := r.srv.Served(), r.oks.Load(); served < oks {
		failed = append(failed, fmt.Sprintf("server served %d calls but clients verified %d responses", served, oks))
	}
	r.teardown()
	return nil, failed
}
