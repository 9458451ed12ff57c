package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"marnet/internal/simnet"
	"marnet/internal/trace"
)

// StreamConfig describes one application substream.
type StreamConfig struct {
	Name     string
	Class    Class
	Priority Priority
	// Rate is the application's desired rate in bits/s; allocation never
	// exceeds it.
	Rate float64
	// Deadline is the per-packet latency budget. Data older than this is
	// not worth retransmitting (ClassLossRecovery) and is counted late at
	// the receiver. Zero means no deadline (typical for ClassCritical).
	Deadline time.Duration
	// FECK/FECM enable systematic FEC on a ClassLossRecovery stream: every
	// FECK data packets are followed by FECM repair packets.
	FECK, FECM int
	// OnAllocate is the QoS feedback callback: the protocol reports the
	// stream's currently allocated rate so the application can adapt
	// (Section VI-B: lower the video quality, the number of samples, ...).
	OnAllocate func(rate float64)
	// Peer, when nonzero, overrides the sender's default peer for this
	// stream: Section VI-E's multi-server layout, where the latency-
	// critical stage goes to the nearest edge server while bulk streams go
	// to the cloud ("the nearest server would be selected for a given
	// path").
	Peer simnet.Addr
}

// Stream is the sender-side state of one substream.
type Stream struct {
	ID  int
	Cfg StreamConfig

	nextSeq   int64
	allocated float64
	tokens    float64 // bytes of admission credit (discardable streams)
	lastFill  time.Duration

	outstanding map[int64]*pendingPkt // reliable/recovery classes only
	maxAcked    int64

	fecGroup   int64
	fecIdx     int
	fecMaxSize int

	// Stats.
	SentPackets int64
	SentBytes   int64 // wire bytes incl. retransmissions and FEC
	ShedPackets int64
	ShedBytes   int64
	RetxPackets int64
	FECPackets  int64

	// SentRate, when non-nil, samples admitted application bytes; the
	// Figure 4 per-class rate curves come from here.
	SentRate *trace.Throughput
}

// Allocated reports the stream's current rate allocation in bits/s.
func (st *Stream) Allocated() float64 { return st.allocated }

// rttFloor is the synthetic base the path-normalized congestion signal is
// rebased onto.
const rttFloor = 10 * time.Millisecond

type pendingPkt struct {
	hdr     DataHdr
	size    int
	created time.Duration // time of last actual transmission
	retx    int
	queued  bool // still waiting in the sender's own band queue
}

// SenderConfig configures an ARTP sender.
type SenderConfig struct {
	Local, Peer simnet.Addr
	// FlowID labels packets for fair queueing in the network.
	FlowID uint64
	// Paths carries the multipath scheduler. For single-path operation use
	// NewMultipath with one path.
	Paths *Multipath
	// StartBudget is the controller's initial rate in bits/s (default
	// 1 Mb/s).
	StartBudget float64
	// MaxBudget caps the controller (default 1 Gb/s).
	MaxBudget float64
	// RetxLimit bounds retransmissions per packet (default 3).
	RetxLimit int
}

// Sender is the ARTP sending endpoint.
type Sender struct {
	sim  *simnet.Sim
	cfg  SenderConfig
	ctrl *Controller

	streams []*Stream
	bands   [4]simnet.DropTail // admitted packets by priority band
	pacing  bool
	sweep   simnet.Event
	stopped bool
	lostSeq []int64 // loseInOrder's scratch
	flatten bool    // ablation: ignore priorities entirely

	// Stats.
	PacedOut     int64
	NoPathDrops  int64
	DeadlineShed int64
}

// NewSender builds a sender. Call AddStream for each substream, then drive
// it by Submit-ing application data.
func NewSender(sim *simnet.Sim, cfg SenderConfig) *Sender {
	if cfg.StartBudget <= 0 {
		cfg.StartBudget = 1e6
	}
	if cfg.MaxBudget <= 0 {
		cfg.MaxBudget = 1e9
	}
	if cfg.RetxLimit <= 0 {
		cfg.RetxLimit = 3
	}
	s := &Sender{sim: sim, cfg: cfg, ctrl: NewController(cfg.StartBudget)}
	s.ctrl.MaxBudget = cfg.MaxBudget
	s.ctrl.SetOnChange(s.reallocate)
	return s
}

// Controller exposes the congestion controller (for traces and tuning).
func (s *Sender) Controller() *Controller { return s.ctrl }

// Streams returns the registered streams.
func (s *Sender) Streams() []*Stream { return s.streams }

// AddStream registers a substream and returns it.
func (s *Sender) AddStream(cfg StreamConfig) (*Stream, error) {
	switch cfg.Class {
	case ClassFullBestEffort, ClassLossRecovery, ClassCritical:
	default:
		return nil, fmt.Errorf("core: invalid class %d", cfg.Class)
	}
	switch cfg.Priority {
	case PrioHighest, PrioNoDiscard, PrioNoDelay, PrioLowest:
	default:
		return nil, fmt.Errorf("core: invalid priority %d", cfg.Priority)
	}
	if (cfg.FECK > 0 || cfg.FECM > 0) && cfg.Class != ClassLossRecovery {
		return nil, fmt.Errorf("core: FEC requires ClassLossRecovery, got %v", cfg.Class)
	}
	if cfg.FECK < 0 || cfg.FECM < 0 || (cfg.FECK > 0 && cfg.FECM == 0) {
		return nil, fmt.Errorf("core: invalid FEC parameters k=%d m=%d", cfg.FECK, cfg.FECM)
	}
	st := &Stream{
		ID:          len(s.streams),
		Cfg:         cfg,
		outstanding: make(map[int64]*pendingPkt),
		maxAcked:    -1,
		lastFill:    s.sim.Now(),
		tokens:      4 * 1500, // initial burst credit so the first frames pass admission
	}
	s.streams = append(s.streams, st)
	s.reallocate()
	return st, nil
}

// Stop halts background activity (retransmission sweeps, pacing).
func (s *Sender) Stop() {
	s.stopped = true
	s.sweep.Cancel()
}

// FlattenPriorities disables all priority handling — one shared band and
// registration-order allocation. It exists for the ablation benchmarks
// that quantify what the Section VI-A priority machinery buys.
func (s *Sender) FlattenPriorities() {
	s.flatten = true
	s.reallocate()
}

// reallocate distributes the controller budget over streams strictly by
// priority (Section VI-B's graceful degradation: the most important classes
// are funded first; whatever cannot be funded is shed or delayed).
func (s *Sender) reallocate() {
	remaining := s.ctrl.Budget()
	order := make([]*Stream, len(s.streams))
	copy(order, s.streams)
	if !s.flatten {
		sort.SliceStable(order, func(i, j int) bool {
			return order[i].Cfg.Priority < order[j].Cfg.Priority
		})
	}
	for _, st := range order {
		alloc := st.Cfg.Rate
		if alloc > remaining {
			alloc = remaining
		}
		remaining -= alloc
		if alloc != st.allocated {
			st.allocated = alloc
			if st.Cfg.OnAllocate != nil {
				st.Cfg.OnAllocate(alloc)
			}
		}
	}
}

// Submit hands the protocol one application datagram of appBytes payload on
// the stream. It returns true if the datagram was admitted (queued or sent)
// and false if it was shed by graceful degradation.
func (s *Sender) Submit(st *Stream, appBytes int) bool {
	if s.stopped || appBytes <= 0 {
		return false
	}
	now := s.sim.Now()

	// Refill the admission bucket at the allocated rate.
	dt := (now - st.lastFill).Seconds()
	st.lastFill = now
	st.tokens += st.allocated / 8 * dt
	burst := float64(4 * (appBytes + HeaderSize))
	if st.tokens > burst {
		st.tokens = burst
	}

	size := appBytes + HeaderSize
	if st.Cfg.Priority.Discardable() {
		if st.tokens < float64(size) {
			st.ShedPackets++
			st.ShedBytes += int64(appBytes)
			return false
		}
		st.tokens -= float64(size)
	}
	// Non-discardable streams are never shed at admission — they are
	// delayed instead (the band queue drains in priority order).

	hdr := DataHdr{
		Stream:   st.ID,
		Seq:      st.nextSeq,
		AppBytes: appBytes,
	}
	if st.Cfg.Deadline > 0 {
		hdr.Deadline = now + st.Cfg.Deadline
	}
	st.nextSeq++

	if st.Cfg.FECK > 0 {
		hdr.FECGroup = st.fecGroup + 1 // group ids are 1-based on the wire
		hdr.FECIndex = st.fecIdx
		hdr.FECK = st.Cfg.FECK
		hdr.FECM = st.Cfg.FECM
		if size > st.fecMaxSize {
			st.fecMaxSize = size
		}
	}

	if st.Cfg.Class != ClassFullBestEffort {
		st.outstanding[hdr.Seq] = &pendingPkt{hdr: hdr, size: size, created: now, queued: true}
		s.ensureSweep()
	}
	if st.SentRate != nil {
		st.SentRate.Record(now, appBytes)
	}
	s.enqueue(st, hdr, size)

	if st.Cfg.FECK > 0 {
		st.fecIdx++
		if st.fecIdx == st.Cfg.FECK {
			s.emitRepair(st)
			st.fecIdx = 0
			st.fecGroup++
			st.fecMaxSize = 0
		}
	}
	return true
}

// emitRepair enqueues the FECM repair packets for the just-completed group.
func (s *Sender) emitRepair(st *Stream) {
	for i := 0; i < st.Cfg.FECM; i++ {
		hdr := DataHdr{
			Stream:   st.ID,
			Seq:      -(st.fecGroup + 1), // repair packets live outside seq space
			FECGroup: st.fecGroup + 1,
			FECIndex: st.Cfg.FECK + i,
			FECK:     st.Cfg.FECK,
			FECM:     st.Cfg.FECM,
			Repair:   true,
		}
		st.FECPackets++
		s.enqueue(st, hdr, st.fecMaxSize)
	}
}

// enqueue places an admitted packet into its priority band and kicks the
// pacer.
func (s *Sender) enqueue(st *Stream, hdr DataHdr, size int) {
	dst := s.cfg.Peer
	if st.Cfg.Peer != 0 {
		dst = st.Cfg.Peer
	}
	pkt := &simnet.Packet{
		ID:      s.sim.NextPacketID(),
		Src:     s.cfg.Local,
		Dst:     dst,
		Flow:    s.cfg.FlowID,
		Size:    size,
		Seq:     hdr.Seq,
		Class:   int(st.Cfg.Class),
		Prio:    int(st.Cfg.Priority),
		Kind:    KindData,
		Created: s.sim.Now(),
		Payload: hdr,
	}
	band := st.Cfg.Priority.Band()
	if s.flatten {
		band = 0
	}
	s.bands[band].Enqueue(pkt, s.sim.Now())
	s.kickPacer()
}

func (s *Sender) kickPacer() {
	if s.pacing || s.stopped {
		return
	}
	s.paceNext()
}

// paceNext transmits the head-of-line packet from the highest band and
// schedules the next departure so the aggregate rate tracks the budget.
func (s *Sender) paceNext() {
	var pkt *simnet.Packet
	for b := range s.bands {
		if pkt = s.bands[b].Dequeue(s.sim.Now()); pkt != nil {
			break
		}
	}
	if pkt == nil {
		s.pacing = false
		return
	}
	s.pacing = true
	s.transmit(pkt)
	budget := s.ctrl.Budget()
	if budget < 1 {
		budget = 1
	}
	gap := time.Duration(float64(pkt.Size*8) / budget * float64(time.Second))
	s.sim.Schedule(gap, s.paceNext)
}

// transmit stamps path and send-time and hands copies to the chosen
// path(s).
func (s *Sender) transmit(pkt *simnet.Packet) {
	hdr, ok := pkt.Payload.(DataHdr)
	if !ok {
		return
	}
	st := s.streams[hdr.Stream]
	now := s.sim.Now()
	// Discardable data that outlived its deadline in our own queue is
	// dropped here rather than wasting link time (prefer fresh data).
	if st.Cfg.Priority.Discardable() && hdr.Deadline > 0 && now > hdr.Deadline {
		st.ShedPackets++
		st.ShedBytes += int64(hdr.AppBytes)
		return
	}
	if pp, ok := st.outstanding[hdr.Seq]; ok && !hdr.Repair {
		pp.queued = false
		pp.created = now
	}
	paths := s.cfg.Paths.Pick(now, st.Cfg.Priority, st.Cfg.Class, pkt.Size)
	if len(paths) == 0 {
		s.NoPathDrops++
		// Reliable data stays outstanding; the sweep will retry it.
		return
	}
	for i, p := range paths {
		h := hdr
		h.PathID = p.ID
		h.SendTime = s.sim.Now()
		out := pkt
		if i > 0 {
			// Duplicate for redundant transmission.
			dup := *pkt
			dup.ID = s.sim.NextPacketID()
			out = &dup
		}
		out.Payload = h
		p.SentPackets++
		p.SentBytes += int64(out.Size)
		p.outstanding++
		st.SentPackets++
		st.SentBytes += int64(out.Size)
		s.PacedOut++
		p.Out.Handle(out)
	}
}

// Handle consumes acks and nacks from the receiver.
func (s *Sender) Handle(pkt *simnet.Packet) {
	switch pkt.Kind {
	case KindAck:
		if ack, ok := pkt.Payload.(AckHdr); ok {
			s.onAck(ack)
		}
	case KindNack:
		if nack, ok := pkt.Payload.(NackHdr); ok {
			s.onNack(nack)
		}
	}
}

func (s *Sender) onAck(ack AckHdr) {
	now := s.sim.Now()
	rtt := now - ack.EchoSend
	var ackPath *Path
	for _, p := range s.cfg.Paths.Paths {
		if p.ID == ack.PathID {
			p.onAck(now, rtt)
			ackPath = p
			break
		}
	}
	// Feed the controller a path-normalized delay signal: the excess over
	// the path's own base RTT, rebased onto a common floor. Without this,
	// the mere existence of a slower path (LTE next to WiFi) would read as
	// congestion and collapse the budget (Section VI-D heterogeneity).
	norm := rtt
	if ackPath != nil && ackPath.baseRTT > 0 {
		norm = rttFloor + (rtt - ackPath.baseRTT)
		if norm < rttFloor {
			norm = rttFloor
		}
	}
	s.ctrl.OnAck(now, norm)

	if ack.Stream < 0 || ack.Stream >= len(s.streams) || ack.Seq < 0 {
		return
	}
	st := s.streams[ack.Stream]
	delete(st.outstanding, ack.Seq)
	if ack.Seq > st.maxAcked {
		st.maxAcked = ack.Seq
	}
	// Gap-based loss inference: anything reliable well below the ack
	// horizon is presumed lost — unless it was (re)sent so recently that
	// its ack could not have arrived yet.
	const reorderSlack = 3
	s.loseInOrder(st, func(seq int64, pp *pendingPkt) bool {
		return seq < st.maxAcked-reorderSlack && s.lossEligible(pp)
	})
}

// loseInOrder runs onLostPacket over every outstanding packet of st that
// lost selects, in ascending sequence order. Declaring a loss feeds the
// controller and re-enqueues the packet, so the order is visible in every
// figure downstream; ranging over the map directly made one seed print
// different numbers from run to run.
func (s *Sender) loseInOrder(st *Stream, lost func(seq int64, pp *pendingPkt) bool) {
	seqs := s.lostSeq[:0]
	for seq, pp := range st.outstanding {
		if lost(seq, pp) {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		s.onLostPacket(st, seq, st.outstanding[seq])
	}
	s.lostSeq = seqs[:0]
}

// minPathSRTT returns the smallest measured smoothed RTT across paths (the
// real network RTT estimate, as opposed to the controller's normalized
// congestion signal), or 0 if nothing is measured yet.
func (s *Sender) minPathSRTT() time.Duration {
	var best time.Duration
	for _, p := range s.cfg.Paths.Paths {
		if p.srtt > 0 && (best == 0 || p.srtt < best) {
			best = p.srtt
		}
	}
	return best
}

// lossEligible reports whether enough time has passed since the packet's
// last transmission for its absence to mean loss rather than flight time.
// Packets still waiting in the sender's own queues are never "lost".
func (s *Sender) lossEligible(pp *pendingPkt) bool {
	if pp.queued {
		return false
	}
	guard := s.minPathSRTT()
	if guard < 10*time.Millisecond {
		guard = 10 * time.Millisecond
	}
	return s.sim.Now()-pp.created >= guard
}

func (s *Sender) onNack(nack NackHdr) {
	if nack.Stream < 0 || nack.Stream >= len(s.streams) {
		return
	}
	st := s.streams[nack.Stream]
	for _, seq := range nack.Missing {
		if pp, ok := st.outstanding[seq]; ok && s.lossEligible(pp) {
			s.onLostPacket(st, seq, pp)
		}
	}
}

// onLostPacket decides between retransmission and shedding for a reliable
// or recovery-class packet believed lost.
func (s *Sender) onLostPacket(st *Stream, seq int64, pp *pendingPkt) {
	now := s.sim.Now()
	s.ctrl.OnLoss(now, !st.Cfg.Priority.Discardable())

	if st.Cfg.Class == ClassLossRecovery {
		// Section VI-C: recovery is only worth it when the repair can still
		// arrive before the deadline — the retransmission needs roughly one
		// more one-way trip. Without an RTT estimate we cannot judge
		// affordability, so we decline.
		rtt := s.minPathSRTT()
		affordable := pp.hdr.Deadline == 0 ||
			(rtt > 0 && now+rtt/2 <= pp.hdr.Deadline)
		if !affordable || pp.retx >= s.cfg.RetxLimit {
			delete(st.outstanding, seq)
			s.DeadlineShed++
			return
		}
	}
	if st.Cfg.Class == ClassCritical && pp.retx >= s.cfg.RetxLimit*4 {
		// Even critical data gives up eventually to avoid livelock.
		delete(st.outstanding, seq)
		return
	}
	pp.retx++
	pp.created = now
	pp.queued = true
	st.RetxPackets++
	hdr := pp.hdr
	hdr.Retx = true
	s.enqueue(st, hdr, pp.size)
}

// ensureSweep arms the periodic tail-loss probe that retransmits reliable
// packets that were never acked (e.g. the last packet of a burst, which can
// produce no gap).
func (s *Sender) ensureSweep() {
	// Skip while a sweep is armed or its callback is running (the callback
	// re-arms itself while packets stay outstanding).
	if s.sweep.Pending() || s.sweep.Fired() {
		return
	}
	s.armSweep()
}

func (s *Sender) armSweep() {
	interval := 2 * s.minPathSRTT()
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	s.sweep = s.sim.Schedule(interval, func() {
		if s.stopped {
			return
		}
		now := s.sim.Now()
		stale := interval
		again := false
		for _, st := range s.streams {
			s.loseInOrder(st, func(_ int64, pp *pendingPkt) bool {
				return !pp.queued && now-pp.created >= stale
			})
			if len(st.outstanding) > 0 {
				again = true
			}
		}
		if again {
			s.armSweep()
		} else {
			s.sweep = simnet.Event{}
		}
	})
}
