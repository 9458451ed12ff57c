// PathSet is the client side of multipath ARTP (Section VI-D, Fig. 5):
// one logical transport over N concurrent subflows — one PacketConn per
// access link (WiFi, LTE, ...). The Conn above keeps a single sequence
// space and retransmit map; the PathSet decides, frame by frame, which
// access link carries each datagram:
//
//   - interactive traffic (control frames and the highest priority band)
//     is pinned to the lowest-RTT live path;
//   - bulk bands stripe across the live paths by delivery-rate weight
//     (when striping is enabled; otherwise they follow the interactive
//     choice — pure failover);
//   - cross-path FEC groups the data frames of each path and ships the
//     parity over a different path, so a burst on one access link repairs
//     from the other without end-to-end retransmission;
//   - every path runs its own probe heartbeat and RTT/loss EWMA through
//     the state machine up → degraded → down → probing, and on path-down
//     evidence the frames in flight on the dead path are re-enqueued onto
//     the survivors immediately (sub-RTT failover) instead of waiting out
//     retransmit timers.
//
// The probing cadence is deliberately much faster than the connection
// keepalive: a dead access link is detected and evacuated within a few
// probe intervals, so the Conn's dead-peer detector (and the session's
// re-dial machinery above it) never fires while at least one path lives.
package wire

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/vclock"
)

// PathState is one subflow's position in the probing state machine.
type PathState int

// Path states: Up carries everything; Degraded (loss EWMA above the
// threshold) still carries traffic but loses interactive pinning; Down
// was just declared dead (in-flight frames evacuated); Probing is dead
// with recovery probes in flight.
const (
	PathUp PathState = iota
	PathDegraded
	PathDown
	PathProbing
)

// String renders the state for diagnostics and metrics labels.
func (s PathState) String() string {
	switch s {
	case PathUp:
		return "up"
	case PathDegraded:
		return "degraded"
	case PathDown:
		return "down"
	case PathProbing:
		return "probing"
	}
	return "?"
}

// stateRank orders states by scheduling preference.
func (s PathState) rank() int {
	switch s {
	case PathUp:
		return 0
	case PathDegraded:
		return 1
	case PathProbing:
		return 2
	default: // PathDown
		return 3
	}
}

// PathConf names one subflow and its transport. The PathSet owns the
// transport and closes it on Close.
type PathConf struct {
	Name string
	PC   PacketConn
}

// PathFEC configures cross-path parity: every K data frames sent on one
// path produce M Reed–Solomon repair shards carried on another. K=0
// disables FEC. FlushAfter bounds how long a partial group may wait for
// members before its parity ships anyway (default 25 ms).
type PathFEC struct {
	K, M       int
	FlushAfter time.Duration
}

// PathSetConfig tunes a PathSet.
type PathSetConfig struct {
	// Session links the subflows on the wire; both ends must agree (the
	// PathRouter keys its per-client state on it). Must be nonzero.
	Session uint64
	// Peer is the remote address frames are routed to. When nil it is
	// learned from the first outbound write.
	Peer *net.UDPAddr
	// Clock supplies time and timers (nil = system clock).
	Clock vclock.Clock
	// ProbeInterval is the per-path heartbeat period (default 50 ms). It
	// should be several times shorter than the Conn keepalive so failover
	// completes before dead-peer detection can fire.
	ProbeInterval time.Duration
	// ProbeMiss is how many consecutive unanswered probes declare a path
	// down (default 2).
	ProbeMiss int
	// DegradeLoss is the probe-loss EWMA above which an up path turns
	// degraded (default 0.4); it recovers below half that.
	DegradeLoss float64
	// FEC enables cross-path parity groups.
	FEC PathFEC
	// Stripe spreads bulk bands across live paths by delivery-rate
	// weight. Off, every frame follows the interactive path choice.
	Stripe bool
	// OnPathState observes per-path transitions (called without internal
	// locks held).
	OnPathState func(path string, st PathState)
	// Recorder, when set, receives an EvPathState flight-recorder event on
	// every subflow transition and freezes a snapshot when a path dies.
	Recorder *obs.FlightRecorder
}

// frameKey identifies one reliable frame across the wire layer.
type frameKey struct {
	stream uint16
	seq    int64
}

// inflightEntry remembers which path carried a reliable frame (ack
// attribution and failover evacuation).
type inflightEntry struct {
	path  int
	bytes int
}

// maxInflightEntries bounds the attribution map; beyond it the oldest
// entries are dropped (attribution degrades gracefully to "unknown").
const maxInflightEntries = 8192

// sentStamp remembers which path carried a data frame of any class, by the
// send stamp an acknowledgement echoes (rebaseRTT).
type sentStamp struct {
	micro uint64
	path  int
}

// sentStamps is how many data frames the stamp ring remembers: a round
// trip's worth of 1200 B frames at 100 Mb/s and 100 ms.
const sentStamps = 1024

// subPath is the per-subflow state.
type subPath struct {
	name string
	pc   PacketConn

	state        PathState
	srtt         time.Duration
	minRTT       time.Duration // the fastest probe answer: the path's base RTT
	loss         float64
	lossKnown    bool
	pending      int // probes sent since the last probe-ack
	probeSeq     uint32
	deliveryRate float64 // acked bytes/s EWMA
	ackedBytes   int64   // since the last probe fire
	deficit      float64 // striping credit

	sentFrames  int64
	sentBytes   int64
	probesSent  int64
	probesAcked int64
	downs       int64
}

// PathSet multiplexes one logical ARTP transport over N subflows. It
// implements PacketConn (and BatchWriter), so DialVia(pathSet, peer, cfg)
// runs the unmodified Conn machinery over it.
type PathSet struct {
	cfg   PathSetConfig
	clock vclock.Clock
	epoch time.Time
	sync  bool

	mu       sync.Mutex
	paths    []*subPath
	peer     *net.UDPAddr
	recv     func(pkt []byte, from *net.UDPAddr)
	closed   bool
	requeue  func(keys []frameKey) // bound Conn failover hook
	inflight map[frameKey]inflightEntry
	infifo   []frameKey            // insertion order, for bounded eviction
	sent     [sentStamps]sentStamp // ring of the data frames written
	sentN    uint64                // data frames written

	tx *fecGroups
	rx *fecReassembler

	probeTimer vclock.Timer
	probeFn    func()
	flushTimer vclock.Timer
	flushFn    func()

	failoverFrames int64
	paritySent     int64
}

var (
	_ PacketConn  = (*PathSet)(nil)
	_ BatchWriter = (*PathSet)(nil)
)

// NewPathSet builds a path manager over the given subflows.
func NewPathSet(paths []PathConf, cfg PathSetConfig) (*PathSet, error) {
	if len(paths) == 0 {
		return nil, errors.New("wire: path set needs at least one path")
	}
	if cfg.Session == 0 {
		return nil, errors.New("wire: path set needs a nonzero session id")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 50 * time.Millisecond
	}
	if cfg.ProbeMiss <= 0 {
		cfg.ProbeMiss = 2
	}
	if cfg.DegradeLoss <= 0 {
		cfg.DegradeLoss = 0.4
	}
	clock := vclock.OrSystem(cfg.Clock)
	ps := &PathSet{
		cfg:      cfg,
		clock:    clock,
		epoch:    clock.Now(),
		peer:     cfg.Peer,
		inflight: make(map[frameKey]inflightEntry),
		rx:       newFECReassembler(),
		sync:     true,
	}
	if cfg.FEC.K > 0 {
		if cfg.FEC.M <= 0 || cfg.FEC.K+cfg.FEC.M > 16 {
			return nil, fmt.Errorf("wire: path FEC geometry k=%d m=%d out of range", cfg.FEC.K, cfg.FEC.M)
		}
		tx, err := newFECGroups(cfg.FEC.K, cfg.FEC.M)
		if err != nil {
			return nil, err
		}
		ps.tx = tx
		if ps.cfg.FEC.FlushAfter <= 0 {
			ps.cfg.FEC.FlushAfter = 25 * time.Millisecond
		}
	}
	for _, p := range paths {
		ps.paths = append(ps.paths, &subPath{name: p.Name, pc: p.PC, state: PathUp})
		if !p.PC.Synchronous() {
			ps.sync = false
		}
	}
	ps.probeFn = ps.probeFire
	ps.flushFn = ps.flushFire
	return ps, nil
}

// bindConn installs the failover hook: newConnCommon calls this when a
// Conn is built directly over a PathSet, so path-down evacuation can
// re-enqueue in-flight frames without exporting Conn internals. The Conn,
// not yet shared, also learns to feed its controller rebaseRTT.
func (ps *PathSet) bindConn(c *Conn) {
	ps.mu.Lock()
	ps.requeue = c.requeueFrames
	ps.mu.Unlock()
	c.paths = ps
}

// rebaseRTT is the delay a bound Conn's controller reacts to (Section
// VI-D heterogeneity): core.BaseRTTFloor plus how far rtt exceeds the base
// RTT of the path that carried the frame whose send stamp the sample
// echoes, whatever its class. Fed the raw sample, the controller would
// read the mere existence of a slower path — LTE beside WiFi — as
// congestion at every cutover and cut the budget to its floor.
//
// A burst striped over several paths shares one stamp, and a frame the
// ring has forgotten could have taken any path: of the candidates, the
// sample is rebased onto the slowest base it is not below, since no frame
// arrives faster than its path's base, and onto the floor if it is below
// them all. A sample no candidate's probes have timed yet passes through.
func (ps *PathSet) rebaseRTT(rtt time.Duration, echo uint64) time.Duration {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var below, above time.Duration // slowest base <= rtt, fastest base > rtt
	consider := func(p *subPath) {
		switch base := p.minRTT; {
		case base == 0:
		case base <= rtt:
			below = max(below, base)
		case above == 0 || base < above:
			above = base
		}
	}
	found := false
	// Stamps only grow in write order: walk back to the first older one.
	for n := ps.sentN; n > 0 && ps.sentN-n < sentStamps; n-- {
		s := ps.sent[(n-1)%sentStamps]
		if s.micro < echo {
			break
		}
		if s.micro == echo {
			found = true
			consider(ps.paths[s.path])
		}
	}
	if !found {
		for _, p := range ps.paths {
			consider(p)
		}
	}
	switch {
	case below > 0:
		return core.BaseRTTFloor + rtt - below
	case above > 0:
		return core.BaseRTTFloor
	}
	return rtt
}

// Start installs the upward delivery callback, starts every subflow, and
// arms the probe (and FEC flush) chains.
func (ps *PathSet) Start(recv func(pkt []byte, from *net.UDPAddr)) {
	ps.mu.Lock()
	ps.recv = recv
	ps.probeTimer = ps.clock.AfterFunc(ps.cfg.ProbeInterval, ps.probeFn)
	if ps.tx != nil {
		ps.flushTimer = ps.clock.AfterFunc(ps.cfg.FEC.FlushAfter, ps.flushFn)
	}
	ps.mu.Unlock()
	for i, p := range ps.paths {
		idx := i
		p.pc.Start(func(pkt []byte, from *net.UDPAddr) { ps.handle(idx, pkt, from) })
	}
}

// Synchronous reports whether every subflow is simulated.
func (ps *PathSet) Synchronous() bool { return ps.sync }

// LocalAddr reports the first subflow's bound address.
func (ps *PathSet) LocalAddr() net.Addr { return ps.paths[0].pc.LocalAddr() }

// Close stops the probing machinery and closes every subflow.
func (ps *PathSet) Close() error {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return nil
	}
	ps.closed = true
	for _, t := range []vclock.Timer{ps.probeTimer, ps.flushTimer} {
		if t != nil {
			t.Stop()
		}
	}
	ps.probeTimer, ps.flushTimer = nil, nil
	ps.rx.drain()
	ps.mu.Unlock()
	var first error
	for _, p := range ps.paths {
		if err := p.pc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// micros is the probe timestamp base.
func (ps *PathSet) micros() uint64 {
	return uint64(ps.clock.Now().Sub(ps.epoch).Microseconds())
}

// WriteToUDP routes one encoded ARTP frame onto a subflow. The frame's
// plaintext header (headers stay in the clear even when payloads are
// sealed) decides the latency class; reliable data frames are recorded
// for ack attribution and failover; FEC groups accumulate and emit
// parity onto a different path.
func (ps *PathSet) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	hdr, _, derr := DecodeFrame(b)

	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return 0, net.ErrClosed
	}
	if ps.peer == nil {
		ps.peer = addr
	}
	if derr != nil {
		// Not an ARTP frame we understand: forward on the best path,
		// ungrouped, so the transport stays transparent.
		idx := ps.bestLocked(-1)
		frame := AppendPathData(make([]byte, 0, PathDataOver+len(b)), ps.cfg.Session, uint8(idx), 0, 0, b)
		ps.chargeLocked(idx, len(frame))
		pc := ps.paths[idx].pc
		ps.mu.Unlock()
		return writeAdjusted(pc, frame, addr, len(b))
	}

	idx := ps.pickLocked(hdr)
	var group uint32
	var index uint8
	var parity []parityOut
	if hdr.Type == TypeData {
		ps.sent[ps.sentN%sentStamps] = sentStamp{micro: hdr.SendMicro, path: idx}
		ps.sentN++
		if core.Class(hdr.Class) != core.ClassFullBestEffort {
			ps.recordInflightLocked(frameKey{hdr.Stream, hdr.Seq}, inflightEntry{path: idx, bytes: len(b)})
		}
		if ps.tx != nil {
			group, index, parity = ps.tx.place(idx, b)
		}
	}
	frame := AppendPathData(make([]byte, 0, PathDataOver+len(b)), ps.cfg.Session, uint8(idx), group, index, b)
	ps.chargeLocked(idx, len(frame))
	pc := ps.paths[idx].pc
	var parityWrites []pathWrite
	if len(parity) > 0 {
		parityWrites = ps.encodeParityLocked(idx, parity)
	}
	ps.mu.Unlock()

	n, err := writeAdjusted(pc, frame, addr, len(b))
	for _, w := range parityWrites {
		w.pc.WriteToUDP(w.frame, addr) //nolint:errcheck // parity is best-effort by design
	}
	return n, err
}

// writeAdjusted forwards the encapsulated frame but reports the caller's
// original length on success, preserving WriteToUDP semantics for the
// layer above.
func writeAdjusted(pc PacketConn, frame []byte, addr *net.UDPAddr, orig int) (int, error) {
	if _, err := pc.WriteToUDP(frame, addr); err != nil {
		return 0, err
	}
	return orig, nil
}

// WriteBatch implements BatchWriter: each frame still gets its own path
// decision, so a burst of mixed bands fans out correctly.
func (ps *PathSet) WriteBatch(dgs []Datagram) (int, error) {
	for i := range dgs {
		if _, err := ps.WriteToUDP(dgs[i].B, dgs[i].Addr); err != nil {
			return i, err
		}
	}
	return len(dgs), nil
}

// pathWrite is one encapsulated datagram bound for a subflow: the
// client side fills pc (each subflow is its own transport), the router
// fills addr (all subflows share one socket).
type pathWrite struct {
	pc    PacketConn
	addr  *net.UDPAddr
	frame []byte
}

// encodeParityLocked encapsulates repair shards onto a path other than
// the one that carried the data (cross-path repair); with one live path
// the parity rides the same path — still useful against random loss.
func (ps *PathSet) encodeParityLocked(dataPath int, parity []parityOut) []pathWrite {
	idx := ps.bestLocked(dataPath)
	out := make([]pathWrite, 0, len(parity))
	for _, p := range parity {
		frame := AppendPathParity(make([]byte, 0, PathPrefixLen+pathParityOver+len(p.shard)),
			ps.cfg.Session, uint8(idx), p.hdr, p.shard)
		ps.chargeLocked(idx, len(frame))
		ps.paritySent++
		out = append(out, pathWrite{pc: ps.paths[idx].pc, frame: frame})
	}
	return out
}

// chargeLocked accounts one outbound datagram to a path.
func (ps *PathSet) chargeLocked(idx, bytes int) {
	ps.paths[idx].sentFrames++
	ps.paths[idx].sentBytes += int64(bytes)
}

// recordInflightLocked tracks a reliable frame's path, evicting the
// oldest entries past the bound.
func (ps *PathSet) recordInflightLocked(k frameKey, e inflightEntry) {
	if _, ok := ps.inflight[k]; !ok {
		ps.infifo = append(ps.infifo, k)
	}
	ps.inflight[k] = e
	for len(ps.inflight) > maxInflightEntries && len(ps.infifo) > 0 {
		old := ps.infifo[0]
		ps.infifo = ps.infifo[1:]
		delete(ps.inflight, old)
	}
}

// bestLocked returns the most attractive path other than `except`
// (pass -1 for no exclusion): best state rank first, then lowest SRTT
// (unmeasured paths lose to measured ones), then lowest index. It never
// returns "none" — a fully dead set still picks a path, so the transport
// never goes mute (the probe that revives a path has to travel somehow).
func (ps *PathSet) bestLocked(except int) int {
	best := -1
	for i, p := range ps.paths {
		if i == except {
			continue
		}
		if best == -1 || pathLess(p, ps.paths[best], i, best) {
			best = i
		}
	}
	if best == -1 {
		return except // single-path set asked to exclude its only path
	}
	return best
}

// pathLess orders (a,i) before (b,j) by state rank, then SRTT, then index.
func pathLess(a, b *subPath, i, j int) bool {
	if ra, rb := a.state.rank(), b.state.rank(); ra != rb {
		return ra < rb
	}
	switch {
	case a.srtt == 0 && b.srtt == 0:
		return i < j
	case a.srtt == 0:
		return false
	case b.srtt == 0:
		return true
	case a.srtt != b.srtt:
		return a.srtt < b.srtt
	}
	return i < j
}

// pickLocked is the latency-class-aware scheduler.
func (ps *PathSet) pickLocked(hdr Header) int {
	interactive := hdr.Type != TypeData || core.Priority(hdr.Prio).Band() == 0 ||
		core.Class(hdr.Class) == core.ClassCritical
	if interactive || !ps.cfg.Stripe {
		return ps.bestLocked(-1)
	}
	// Bulk striping: deficit-weighted round robin over the live (up or
	// degraded) paths, weighted by measured delivery rate.
	live := live(ps.paths)
	if len(live) < 2 {
		return ps.bestLocked(-1)
	}
	var totalW float64
	weights := make([]float64, len(live))
	for n, i := range live {
		w := ps.paths[i].deliveryRate
		if w <= 0 {
			w = 1
		}
		weights[n] = w
		totalW += w
	}
	best := live[0]
	for _, i := range live[1:] {
		if ps.paths[i].deficit > ps.paths[best].deficit {
			best = i
		}
	}
	for n, i := range live {
		ps.paths[i].deficit += weights[n] / totalW
	}
	ps.paths[best].deficit -= 1
	return best
}

// live returns the indexes of paths in state Up or Degraded.
func live(paths []*subPath) []int {
	out := make([]int, 0, len(paths))
	for i, p := range paths {
		if p.state == PathUp || p.state == PathDegraded {
			out = append(out, i)
		}
	}
	return out
}

// probeFire is the heartbeat: per path it scores the previous interval
// (probe answered or not), walks the state machine, evacuates in-flight
// frames from a freshly dead path, sends the next probe, and re-arms.
func (ps *PathSet) probeFire() {
	type notif struct {
		name string
		st   PathState
	}
	var notifs []notif
	var evac []frameKey
	pathDied := false

	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return
	}
	interval := ps.cfg.ProbeInterval
	peer := ps.peer
	var probes []pathWrite
	for i, p := range ps.paths {
		if p.probesSent > 0 {
			miss := 0.0
			if p.pending > 0 {
				miss = 1
			}
			if !p.lossKnown {
				p.loss, p.lossKnown = miss, true
			} else {
				p.loss += 0.25 * (miss - p.loss)
			}
			// Delivery-rate EWMA from acked bytes this interval.
			rate := float64(p.ackedBytes) / interval.Seconds()
			p.ackedBytes = 0
			p.deliveryRate += 0.25 * (rate - p.deliveryRate)
		}
		prev := p.state
		switch {
		case p.pending >= ps.cfg.ProbeMiss && (p.state == PathUp || p.state == PathDegraded):
			p.state = PathDown
			p.downs++
			evac = append(evac, ps.evacuateLocked(i)...)
		case p.state == PathDown:
			p.state = PathProbing
		case p.state == PathUp && p.loss >= ps.cfg.DegradeLoss:
			p.state = PathDegraded
		case p.state == PathDegraded && p.loss < ps.cfg.DegradeLoss/2:
			p.state = PathUp
		}
		if p.state != prev {
			ps.cfg.Recorder.Record(obs.EvPathState, uint8(p.state), uint16(i), 0, uint64(p.srtt.Microseconds()))
			if p.state == PathDown {
				pathDied = true
			}
			if ps.cfg.OnPathState != nil {
				notifs = append(notifs, notif{p.name, p.state})
			}
		}
		if peer != nil {
			probe := PathProbe{
				Seq:           p.probeSeq,
				SendMicro:     ps.micros(),
				SRTTMicro:     uint32(p.srtt.Microseconds()),
				IntervalMicro: uint32(interval.Microseconds()),
				State:         uint8(p.state),
			}
			p.probeSeq++
			p.pending++
			p.probesSent++
			frame := AppendPathProbe(make([]byte, 0, PathPrefixLen+pathProbeLen),
				PathKindProbe, ps.cfg.Session, uint8(i), probe)
			ps.chargeLocked(i, len(frame))
			probes = append(probes, pathWrite{pc: p.pc, frame: frame})
		}
	}
	ps.failoverFrames += int64(len(evac))
	requeue := ps.requeue
	ps.probeTimer = vclock.Rearm(ps.clock, ps.probeTimer, interval, ps.probeFn)
	ps.mu.Unlock()

	if pathDied {
		// Freeze outside the lock: the ring now holds the sends, losses
		// and state flips that led into the failover.
		ps.cfg.Recorder.Freeze("path-down")
	}
	for _, n := range notifs {
		ps.cfg.OnPathState(n.name, n.st)
	}
	for _, w := range probes {
		w.pc.WriteToUDP(w.frame, peer) //nolint:errcheck // best-effort probe
	}
	if len(evac) > 0 && requeue != nil {
		requeue(evac)
	}
}

// evacuateLocked collects (and forgets) every reliable frame in flight
// on a dead path, in deterministic order, for immediate re-enqueue on
// the survivors.
func (ps *PathSet) evacuateLocked(path int) []frameKey {
	var keys []frameKey
	for k, e := range ps.inflight {
		if e.path == path {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].stream != keys[j].stream {
			return keys[i].stream < keys[j].stream
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		delete(ps.inflight, k)
	}
	return keys
}

// flushFire closes partial FEC groups that waited FlushAfter, ships their
// parity, and re-arms.
func (ps *PathSet) flushFire() {
	ps.mu.Lock()
	if ps.closed || ps.tx == nil {
		ps.mu.Unlock()
		return
	}
	var writes []pathWrite
	if parity := ps.tx.flush(); len(parity) > 0 {
		writes = ps.encodeParityLocked(-1, parity)
	}
	peer := ps.peer
	ps.flushTimer = vclock.Rearm(ps.clock, ps.flushTimer, ps.cfg.FEC.FlushAfter, ps.flushFn)
	ps.mu.Unlock()
	for _, w := range writes {
		w.pc.WriteToUDP(w.frame, peer) //nolint:errcheck // parity is best-effort
	}
}

// handle demultiplexes one inbound datagram from subflow pathIdx.
func (ps *PathSet) handle(pathIdx int, pkt []byte, from *net.UDPAddr) {
	if !IsPathFrame(pkt) {
		// A legacy (single-path) peer: deliver as-is.
		ps.mu.Lock()
		recv := ps.recv
		closed := ps.closed
		ps.mu.Unlock()
		if recv != nil && !closed {
			recv(pkt, from)
		}
		return
	}
	hdr, body, err := DecodePathHeader(pkt)
	if err != nil || hdr.Session != ps.cfg.Session {
		return
	}
	switch hdr.Kind {
	case PathKindProbe:
		// Echo so the far side can measure this direction too.
		ack := append([]byte(nil), pkt...)
		ack[3] = PathKindProbeAck
		ps.paths[pathIdx].pc.WriteToUDP(ack, from) //nolint:errcheck // best-effort echo
	case PathKindProbeAck:
		probe, perr := DecodePathProbe(body)
		if perr != nil {
			return
		}
		ps.onProbeAck(pathIdx, probe)
	case PathKindData:
		group, index, inner, derr := DecodePathData(body)
		if derr != nil {
			return
		}
		ps.onPathData(group, index, inner, from)
	case PathKindParity:
		phdr, shard, perr := DecodePathParity(body)
		if perr != nil {
			return
		}
		ps.mu.Lock()
		recovered := ps.rx.onParity(phdr, shard)
		recv, closed := ps.recv, ps.closed
		ps.mu.Unlock()
		if recv == nil || closed {
			return
		}
		for _, frame := range recovered {
			recv(frame, from)
		}
	}
}

// onProbeAck folds an answered probe into the path's estimators and
// revives dead paths.
func (ps *PathSet) onProbeAck(pathIdx int, probe PathProbe) {
	var name string
	var st PathState
	notify := false

	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return
	}
	p := ps.paths[pathIdx]
	p.pending = 0
	p.probesAcked++
	rtt := time.Duration(ps.micros()-probe.SendMicro) * time.Microsecond
	if rtt > 0 {
		if p.minRTT == 0 || rtt < p.minRTT {
			p.minRTT = rtt
		}
		if p.srtt == 0 {
			p.srtt = rtt
		} else {
			p.srtt = (7*p.srtt + rtt) / 8
		}
	}
	if p.state == PathDown || p.state == PathProbing {
		p.state = PathUp
		p.loss, p.lossKnown = 0, true
		ps.cfg.Recorder.Record(obs.EvPathState, uint8(p.state), uint16(pathIdx), 0, uint64(p.srtt.Microseconds()))
		if ps.cfg.OnPathState != nil {
			name, st, notify = p.name, p.state, true
		}
	}
	ps.mu.Unlock()
	if notify {
		ps.cfg.OnPathState(name, st)
	}
}

// onPathData strips the encapsulation, attributes what the inner frame
// acknowledges back to the paths that carried it, feeds the FEC reassembler, and
// delivers the inner frame (plus anything the parity just repaired).
func (ps *PathSet) onPathData(group uint32, index uint8, inner []byte, from *net.UDPAddr) {
	var recovered [][]byte
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return
	}
	if ih, _, err := DecodeFrame(inner); err == nil {
		ps.creditAcksLocked(ih.Acks)
	}
	recovered = ps.rx.onData(group, index, inner)
	recv, closed := ps.recv, ps.closed
	ps.mu.Unlock()
	if recv == nil || closed {
		return
	}
	recv(inner, from)
	for _, frame := range recovered {
		recv(frame, from)
	}
}

// creditAcksLocked attributes what a frame of any type acknowledges to the
// paths that carried it. A range names a run as long as the peer's receive
// window, nearly all of it credited long ago, so each range walks whichever
// is shorter: its sequences or the frames in flight.
func (ps *PathSet) creditAcksLocked(b AckBlock) {
	credit := func(k frameKey, e inflightEntry) {
		delete(ps.inflight, k)
		if e.path < len(ps.paths) {
			ps.paths[e.path].ackedBytes += int64(e.bytes)
		}
	}
	for i, n := 0, b.Len(); i < n; i++ {
		r := b.Range(i)
		if len(ps.inflight) < int(r.Run) {
			for k, e := range ps.inflight {
				if b.Covers(k.stream, k.seq) {
					credit(k, e)
				}
			}
			return // Covers looked at every range
		}
		for k := (frameKey{r.Stream, r.First}); k.seq < r.First+int64(r.Run); k.seq++ {
			if e, ok := ps.inflight[k]; ok {
				credit(k, e)
			}
		}
	}
}

// PathStats is a snapshot of one subflow.
type PathStats struct {
	Name         string
	State        PathState
	SRTT         time.Duration
	Loss         float64
	DeliveryRate float64 // acked bytes/s
	SentFrames   int64
	SentBytes    int64
	ProbesSent   int64
	ProbesAcked  int64
	Downs        int64
}

// PathSetStats is a snapshot of the whole set.
type PathSetStats struct {
	Paths          []PathStats
	FailoverFrames int64 // frames evacuated off dead paths
	ParitySent     int64
	FECRepaired    int64 // inner frames regenerated from parity
	FECUnrepaired  int64 // holes still missing when their group retired
}

// Stats snapshots the set.
func (ps *PathSet) Stats() PathSetStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := PathSetStats{
		FailoverFrames: ps.failoverFrames,
		ParitySent:     ps.paritySent,
		FECRepaired:    ps.rx.Repaired,
		FECUnrepaired:  ps.rx.Unrepaired,
	}
	for _, p := range ps.paths {
		out.Paths = append(out.Paths, PathStats{
			Name: p.name, State: p.state, SRTT: p.srtt, Loss: p.loss,
			DeliveryRate: p.deliveryRate,
			SentFrames:   p.sentFrames, SentBytes: p.sentBytes,
			ProbesSent: p.probesSent, ProbesAcked: p.probesAcked,
			Downs: p.downs,
		})
	}
	return out
}

// PublishMetrics registers per-path gauges and set-level counters on an
// observability registry. Each path gets a path="<name>" label.
func (ps *PathSet) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.CounterFunc("mar_path_failover_frames_total", func() int64 { return ps.Stats().FailoverFrames }, labels...)
	reg.CounterFunc("mar_path_parity_sent_total", func() int64 { return ps.Stats().ParitySent }, labels...)
	reg.CounterFunc("mar_path_fec_repaired_total", func() int64 { return ps.Stats().FECRepaired }, labels...)
	reg.CounterFunc("mar_path_fec_unrepaired_total", func() int64 { return ps.Stats().FECUnrepaired }, labels...)
	for i, p := range ps.paths {
		idx := i
		ls := append(append([]obs.Label(nil), labels...), obs.L("path", p.name))
		at := func() PathStats { return ps.Stats().Paths[idx] }
		reg.GaugeFunc("mar_path_srtt_seconds", func() float64 { return at().SRTT.Seconds() }, ls...)
		reg.GaugeFunc("mar_path_loss_rate", func() float64 { return at().Loss }, ls...)
		reg.GaugeFunc("mar_path_delivery_bytes_per_sec", func() float64 { return at().DeliveryRate }, ls...)
		reg.GaugeFunc("mar_path_state", func() float64 { return float64(at().State) }, ls...)
		reg.CounterFunc("mar_path_sent_frames_total", func() int64 { return at().SentFrames }, ls...)
		reg.CounterFunc("mar_path_probes_sent_total", func() int64 { return at().ProbesSent }, ls...)
		reg.CounterFunc("mar_path_probes_acked_total", func() int64 { return at().ProbesAcked }, ls...)
		reg.CounterFunc("mar_path_downs_total", func() int64 { return at().Downs }, ls...)
	}
}
