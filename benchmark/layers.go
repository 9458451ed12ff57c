package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/overload"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

// micros are the fixed-count loops over each layer's public entry points,
// at the workload's dominant payload size. They run after the rig is torn
// down, so nothing else in the process is busy.
type micros struct {
	encodeNs, encodeAllocs, decodeNs float64
	keyedNs, plainNs, aeadNs         float64 // per frame, bare wire.Dial→wire.Listen pair
	sendAllocs                       float64
	gateNs, gateAllocs               float64 // Admit→Next→Done
	spanNs                           float64 // StartTrace + 2×Stage + Finish
	simEventNs                       float64 // Schedule + fire
}

// The loop counts are fixed at the reference window; a run asked for a
// shorter one (the smoke test) gets proportionally cheaper loops.
const (
	microRounds = 5
	microOps    = 100_000
	pairFrames  = 20_000 // per pair, over all rounds
	pairRounds  = 8
	pairWarm    = 2_000
	microWindow = 12 * time.Second
	pairWindow  = 32 // frames in flight: well inside a loopback socket buffer
	pairStall   = 200 * time.Millisecond
	rpcReqHdr   = 14 // rpc's request header, which rides in every request frame
)

// timeLoop runs fn n times per round and returns the median round's time
// per call and the allocations per call over all rounds.
func timeLoop(n int, fn func()) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	rounds := make([]float64, microRounds)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		rounds[r] = float64(time.Since(t0)) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	return median(rounds), float64(ms.Mallocs-m0) / float64(n*microRounds)
}

// dominantSize is the request size most of the workload's calls carry.
func dominantSize(spec *workloadSpec) int {
	best := spec.mix[0]
	for _, sw := range spec.mix {
		if sw.weight > best.weight {
			best = sw
		}
	}
	return best.size + rpcReqHdr
}

var sink int // keeps the codec loops' results alive

func runMicros(spec *workloadSpec, window time.Duration) (micros, error) {
	var mi micros
	scale := min(1, float64(window)/float64(microWindow))
	ops := max(100, int(microOps*scale))
	size := dominantSize(spec)
	payload := make([]byte, size)
	hdr := wire.Header{Type: wire.TypeData, Stream: 0x10, Class: uint8(core.ClassLossRecovery),
		Prio: uint8(core.PrioHighest), Seq: 1}
	buf := make([]byte, 0, wire.MaxPayload+wire.HeaderLenTraced)
	mi.encodeNs, mi.encodeAllocs = timeLoop(ops, func() {
		hdr.Seq++
		out, _ := wire.AppendFrame(buf[:0], hdr, payload) //nolint:errcheck // the header and size are valid
		sink += len(out)
	})
	frame, _ := wire.AppendFrame(nil, hdr, payload) //nolint:errcheck // as above
	mi.decodeNs, _ = timeLoop(ops, func() {
		h, p, _ := wire.DecodeFrame(frame) //nolint:errcheck // the frame was just encoded
		sink += int(h.Seq) + len(p)
	})

	var err error
	if mi.keyedNs, mi.plainNs, mi.aeadNs, mi.sendAllocs, err = wirePairs(size, scale); err != nil {
		return mi, err
	}

	gate := overload.NewGate(overload.Config{})
	prios := allPrios[:1]
	if spec.sim != nil {
		prios = spec.sim.prios
	}
	items := make([]*overload.Item, len(prios))
	for i, p := range prios {
		items[i] = &overload.Item{Tier: p.AdmissionTier(), Method: method}
	}
	far := time.Now().Add(time.Hour)
	n := 0
	mi.gateNs, mi.gateAllocs = timeLoop(ops, func() {
		it := items[n%len(items)]
		n++
		it.Deadline = far
		if gate.Admit(it) != overload.Admit {
			return
		}
		if run, _, ok := gate.Next(); ok {
			gate.Done(run, time.Microsecond)
		}
	})
	gate.Close()

	tr := obs.NewTracer(0, 1)
	mi.spanNs, _ = timeLoop(ops, func() {
		s := tr.StartTrace("call")
		s.Stage(obs.StageQueue, time.Microsecond)
		s.Stage(obs.StageCompute, time.Microsecond)
		s.Finish()
	})

	fired := 0
	rounds := make([]float64, microRounds)
	for r := range rounds {
		sim := simnet.New(1)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			sim.Schedule(time.Duration(i), func() { fired++ })
		}
		sim.Run() //nolint:errcheck // ops is far below the event limit
		rounds[r] = float64(time.Since(t0)) / float64(ops)
	}
	sink += fired
	mi.simEventNs = median(rounds)
	return mi, nil
}

// pair is a bare wire.Dial → wire.Listen connection pair on loopback:
// both endpoints' whole datapath (codec, AEAD when keyed, pacing,
// syscalls, acks) without rpc or the gate on top.
type pair struct {
	srv, cl *wire.Conn
	payload []byte
	got     atomic.Int64
	kick    chan struct{}
}

const pairStream = 1

func newPair(key []byte, size int) (*pair, error) {
	p := &pair{payload: make([]byte, size), kick: make(chan struct{}, 1)}
	var err error
	p.srv, err = wire.Listen("127.0.0.1:0", wire.Config{Key: key, StartBudget: requestRate,
		OnMessage: func(wire.Message) {
			p.got.Add(1)
			select {
			case p.kick <- struct{}{}:
			default:
			}
		}})
	if err != nil {
		return nil, err
	}
	p.cl, err = wire.Dial(p.srv.LocalAddr().String(), wire.Config{Key: key, StartBudget: requestRate,
		Streams: []wire.StreamSpec{{ID: pairStream, Class: core.ClassLossRecovery, Priority: core.PrioHighest,
			Rate: requestRate, Deadline: time.Second}}})
	if err != nil {
		p.srv.Close() //nolint:errcheck // teardown
		return nil, err
	}
	return p, nil
}

func (p *pair) close() {
	p.cl.Close()  //nolint:errcheck // teardown
	p.srv.Close() //nolint:errcheck // teardown
}

// move sends n frames, at most pairWindow in flight, and returns how many
// arrived. A frame the kernel drops at the tail of a burst has no
// successor to reveal the gap, so after pairStall without progress the
// frames still missing are written off rather than waited for.
func (p *pair) move(n int64) (delivered int64, err error) {
	got0 := p.got.Load()
	sent := got0
	target := got0 + n
	stall := time.NewTimer(pairStall)
	defer stall.Stop()
	for p.got.Load() < target {
		for sent < target && sent-p.got.Load() < pairWindow {
			if _, err := p.cl.Send(pairStream, p.payload); err != nil {
				return p.got.Load() - got0, err
			}
			sent++
		}
		select {
		case <-p.kick:
			if !stall.Stop() {
				<-stall.C
			}
			stall.Reset(pairStall)
		case <-stall.C:
			return p.got.Load() - got0, nil
		}
	}
	return p.got.Load() - got0, nil
}

// wirePairs measures the process CPU time and allocations per delivered
// frame on a keyed and on a plain pair, in alternating rounds so that
// drift on a shared host hits both alike; the AEAD's share is the median
// of the rounds' differences. It is small next to a frame's syscalls, so
// expect it to be noisy.
func wirePairs(size int, scale float64) (keyedNs, plainNs, aeadNs, allocs float64, err error) {
	keyed, err := newPair(make([]byte, 16), size)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer keyed.close()
	plain, err := newPair(nil, size)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer plain.close()
	round := func(p *pair, frames int64) (ns, mallocs float64, err error) {
		before := takeProcSnap()
		n, err := p.move(frames)
		after := takeProcSnap()
		if err != nil || n < frames*9/10 {
			return 0, 0, fmt.Errorf("wire pair delivered %d of %d frames: %v", n, frames, err)
		}
		return float64(after.cpu-before.cpu) / float64(n), float64(after.mallocs-before.mallocs) / float64(n), nil
	}
	warm, frames := max(64, int64(pairWarm*scale)), max(64, int64(pairFrames*scale/pairRounds))
	for _, p := range []*pair{keyed, plain} {
		if _, _, err := round(p, warm); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	var ks, ps, diffs, as []float64
	for r := 0; r < pairRounds; r++ {
		order := []*pair{keyed, plain}
		if r%2 == 1 {
			order[0], order[1] = plain, keyed
		}
		cost := map[*pair]float64{}
		for _, p := range order {
			ns, a, err := round(p, frames)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			cost[p] = ns
			if p == keyed {
				as = append(as, a)
			}
		}
		ks, ps, diffs = append(ks, cost[keyed]), append(ps, cost[plain]), append(diffs, cost[keyed]-cost[plain])
	}
	return median(ks), median(ps), median(diffs), median(as), nil
}

// perLayerValues assembles the traced run's metrics: counter deltas over
// the traced window, gauges read at its end, the untraced reference
// window for the tracing overhead, and the micro-loops.
func perLayerValues(spec *workloadSpec, ref, m *measurement, before, after layerSnap, post values, mi micros) values {
	vs := values{}
	for _, d := range perLayer {
		vs[d.Name] = 0
	}
	delta := values{}
	for k, v := range after.counters {
		delta[k] = v - before.counters[k]
	}
	// Counters and gauges whose snapshot name is the metric's name.
	for k, v := range delta {
		if _, ok := vs[k]; ok {
			vs[k] = v
		}
	}
	for k, v := range after.gauges {
		if _, ok := vs[k]; ok {
			vs[k] = v
		}
	}
	for k, v := range post {
		vs[k] = v
	}
	per := func(x, by float64) float64 {
		if by == 0 {
			return 0
		}
		return x / by
	}
	s, w := m.sum, m.w
	calls := float64(s.attempted)

	vs["rpc.call_issue_ns_p50"] = s.issueP50
	vs["rpc.call_p99_us"] = s.wholeP99.Value
	vs["rpc.call_p999_us"] = s.wholeP999.Value
	vs["rpc.retries_per_call"] = per(delta["rpc.retries"], delta["rpc.calls"])
	vs["rpc.hedges_per_call"] = per(delta["rpc.hedges"], delta["rpc.calls"])

	vs["wire.frame_encode_ns"], vs["wire.frame_encode_allocs"] = mi.encodeNs, mi.encodeAllocs
	vs["wire.frame_decode_ns"] = mi.decodeNs
	vs["wire.send_keyed_ns_per_frame"], vs["wire.send_plain_ns_per_frame"] = mi.keyedNs, mi.plainNs
	vs["wire.aead_ns_per_frame"] = mi.aeadNs
	vs["wire.send_allocs_per_frame"] = mi.sendAllocs
	frames := delta["wire.frames_sent"]
	vs["wire.frames_per_call"] = per(frames, calls)
	vs["wire.batch_fill"] = per(frames, frames-delta["wire.batch_frames"]+delta["wire.batch_writes"])
	vs["wire.batched_frame_share"] = per(delta["wire.batch_frames"], frames)
	vs["wire.retx_per_call"] = per(delta["wire.retx"], calls)
	vs["wire.duplicates_per_call"] = per(delta["wire.duplicates"], calls)

	vs["overload.cycle_ns"], vs["overload.cycle_allocs"] = mi.gateNs, mi.gateAllocs
	sort.Float64s(w.queueDelays)
	vs["overload.queue_delay_us_p50"] = quantile(w.queueDelays, 0.5)
	if spec.sim != nil {
		vs["overload.capacity_use"] = per(delta["overload.completed"]*spec.sim.service.Seconds(), float64(spec.sim.workers)*w.timeline)
	}

	vs["obs.trace_overhead_pct"] = 100 * per(s.cpuUsPerCall-ref.sum.cpuUsPerCall, ref.sum.cpuUsPerCall)
	vs["obs.trace_rate_delta_pct"] = 100 * per(ref.rate()-m.rate(), ref.rate())
	vs["obs.span_ns"] = mi.spanNs

	vs["simnet.wall_ns_per_event"] = per(w.wall*1e9, delta["simnet.events_fired"])
	vs["simnet.schedule_fire_ns"] = mi.simEventNs
	if spec.sim != nil {
		vs["marsim.wall_us_per_call"] = per(w.wall*1e6, calls)
		// Datagrams in flight at the window's two edges roughly cancel.
		vs["marsim.lost_share"] = per(delta["marsim.app_tx"]-delta["marsim.delivered"]-delta["marsim.drop_closed"], delta["marsim.app_tx"])
	}

	vs["runtime.gc_cycles_per_s"] = per(float64(m.after.numGC-m.before.numGC), w.wall)
	_, pauses := pauseQuantile(m.before.pauses, m.after.pauses, 0.5)
	p, _ := pauseQuantile(m.before.pauses, m.after.pauses, pickPercentile(pauses, 0.99))
	vs["runtime.gc_pause_p99_us"] = p * 1e6
	vs["runtime.bytes_per_call"] = per(float64(m.after.bytes-m.before.bytes), calls)
	vs["runtime.cpu_us_per_call"] = ref.sum.cpuUsPerCall

	vs["gen.offered_per_s"] = per(float64(w.offered), w.timeline)

	// What the micro-loops explain of the CPU a call costs: every frame
	// the client sends has a counterpart the server sends (data one way,
	// its ack the other), each costing one bare-wire frame; the gate is
	// crossed once; client and server each record one span.
	// The bare-wire frame crosses sockets, so the sum means nothing for
	// the simulator.
	if spec.sim == nil {
		explained := 2*vs["wire.frames_per_call"]*mi.keyedNs + mi.gateNs + 2*mi.spanNs
		vs["ledger.attributed_share"] = per(explained, s.cpuUsPerCall*1e3)
	}
	return vs
}
