// Package tcp implements a packet-level TCP Reno model (slow start, AIMD
// congestion avoidance, fast retransmit/recovery in the NewReno style, and
// RTO with exponential backoff) over the simnet substrate.
//
// It exists as the baseline the paper argues against: Figure 3's
// "uploads starve downloads on asymmetric links" dynamics and Figure 4's
// congestion-window sawtooth both come from this implementation.
package tcp

import (
	"time"

	"marnet/internal/core"
	"marnet/internal/simnet"
	"marnet/internal/trace"
)

// Wire constants.
const (
	MSS        = 1460 // payload bytes per segment
	HeaderSize = 40   // TCP/IP header bytes
	AckSize    = 40   // pure ACK wire size

	// Packet kinds used in simnet.Packet.Kind.
	KindData = 1
	KindAck  = 2
)

// RTO bounds.
const (
	minRTO  = 200 * time.Millisecond
	initRTO = time.Second
	maxRTO  = 60 * time.Second
)

type ackInfo struct {
	cum int64 // next expected segment number
}

// Sender is the sending half of a TCP connection. It emits KindData packets
// of MSS+HeaderSize bytes toward its egress handler and consumes KindAck
// packets via Handle.
type Sender struct {
	sim  *simnet.Sim
	out  simnet.Handler
	src  simnet.Addr
	dst  simnet.Addr
	flow uint64

	// Congestion state, in segment units.
	cwnd     float64
	ssthresh float64
	maxCwnd  float64 // receive-window clamp

	nextSeq    int64 // next new segment to transmit
	sndUna     int64 // oldest unacknowledged segment
	limit      int64 // total segments to send; 0 = unbounded
	dupAcks    int
	inRecovery bool
	recover    int64

	rtt     core.RTT
	rto     time.Duration
	timer   simnet.Event
	sent    map[int64]bool // segments transmitted at least once
	rexmit  map[int64]bool // Karn: segments retransmitted at least once
	started bool
	done    bool

	// One RTT measurement in progress at a time (RFC 6298 style): the
	// timed segment and its transmission time.
	rttSeq  int64
	rttTime time.Duration
	timing  bool

	// Done is invoked once when a bounded transfer fully completes.
	Done func()

	// CwndTrace, when set, records (t, cwnd-in-segments) on every change.
	CwndTrace *trace.Series

	algo  Algorithm
	cubic cubicState
}

// SenderConfig configures NewSender.
type SenderConfig struct {
	Src, Dst simnet.Addr
	Flow     uint64
	Out      simnet.Handler // egress toward the receiver
	// LimitBytes bounds the transfer (rounded up to whole segments);
	// 0 means an unbounded (greedy) source.
	LimitBytes int64
	// InitialCwnd in segments (default 2).
	InitialCwnd float64
	// MaxCwnd clamps the window in segments, modelling the peer's receive
	// window (default 500 segments ≈ 730 KiB).
	MaxCwnd float64
	// Algo selects the congestion-avoidance algorithm (default Reno).
	Algo Algorithm
}

// NewSender builds a sender; call Start to begin transmitting.
func NewSender(sim *simnet.Sim, cfg SenderConfig) *Sender {
	iw := cfg.InitialCwnd
	if iw <= 0 {
		iw = 2
	}
	mw := cfg.MaxCwnd
	if mw <= 0 {
		mw = 500
	}
	var limit int64
	if cfg.LimitBytes > 0 {
		limit = (cfg.LimitBytes + MSS - 1) / MSS
	}
	algo := cfg.Algo
	if algo == 0 {
		algo = Reno
	}
	return &Sender{
		algo:     algo,
		sim:      sim,
		out:      cfg.Out,
		src:      cfg.Src,
		dst:      cfg.Dst,
		flow:     cfg.Flow,
		cwnd:     iw,
		ssthresh: mw,
		maxCwnd:  mw,
		limit:    limit,
		rto:      initRTO,
		sent:     make(map[int64]bool),
		rexmit:   make(map[int64]bool),
	}
}

// Start begins the transfer.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.traceCwnd()
	s.trySend()
}

func (s *Sender) inFlight() int64 { return s.nextSeq - s.sndUna }

func (s *Sender) traceCwnd() {
	if s.CwndTrace != nil {
		s.CwndTrace.Add(s.sim.Now(), s.cwnd)
	}
}

func (s *Sender) trySend() {
	for float64(s.inFlight()) < s.cwnd && (s.limit == 0 || s.nextSeq < s.limit) {
		s.transmit(s.nextSeq, false)
		s.nextSeq++
	}
}

func (s *Sender) transmit(seq int64, isRexmit bool) {
	if isRexmit || s.sent[seq] {
		s.rexmit[seq] = true
	} else {
		s.sent[seq] = true
		// Start an RTT measurement if none is in progress.
		if !s.timing {
			s.timing = true
			s.rttSeq = seq
			s.rttTime = s.sim.Now()
		}
	}
	pkt := &simnet.Packet{
		Src:  s.src,
		Dst:  s.dst,
		Flow: s.flow,
		Size: MSS + HeaderSize,
		Seq:  seq,
		Kind: KindData,
	}
	s.out.Handle(pkt)
	// RFC 6298 (5.1): arm the timer if it is not already running. It is
	// NOT restarted here — restarting on every transmission would let a
	// steady dup-ACK stream postpone the RTO forever.
	if !s.timer.Pending() {
		s.timer = s.sim.Schedule(s.rto, s.onTimeout)
	}
}

// armTimer (re)starts the retransmission timer (on new cumulative ACKs).
func (s *Sender) armTimer() {
	s.timer.Cancel()
	s.timer = s.sim.Schedule(s.rto, s.onTimeout)
}

func (s *Sender) stopTimer() {
	s.timer.Cancel()
	s.timer = simnet.Event{}
}

func (s *Sender) onTimeout() {
	s.timer = simnet.Event{}
	if s.done || s.inFlight() == 0 {
		return
	}
	s.cubic.onLoss(s.cwnd)
	s.ssthresh = maxf(float64(s.inFlight())/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.inRecovery = false
	s.timing = false                // Karn: never time across a retransmission
	s.rto = minDur(s.rto*2, maxRTO) // Karn backoff
	s.traceCwnd()
	// Go-back-N: without SACK the sender cannot know what survived, so it
	// resends from the oldest hole (slow start re-covers the window).
	for seq := s.sndUna; seq < s.nextSeq; seq++ {
		s.rexmit[seq] = true
	}
	s.nextSeq = s.sndUna + 1
	s.transmit(s.sndUna, true)
}

// Handle consumes ACK packets addressed to this sender.
func (s *Sender) Handle(pkt *simnet.Packet) {
	if pkt.Kind != KindAck {
		return
	}
	ack, ok := pkt.Payload.(ackInfo)
	if !ok || s.done {
		return
	}
	switch {
	case ack.cum > s.sndUna:
		s.onNewAck(ack.cum)
	case ack.cum == s.sndUna:
		s.onDupAck()
	}
}

func (s *Sender) onNewAck(cum int64) {
	// Complete the in-progress RTT measurement if its timed segment is now
	// cumulatively acknowledged and was never retransmitted (Karn).
	if s.timing && cum > s.rttSeq {
		if !s.rexmit[s.rttSeq] {
			s.rtt.Update(s.sim.Now() - s.rttTime)
			s.rto = max(s.rtt.Smoothed()+4*s.rtt.Dev(), minRTO)
		}
		s.timing = false
	}
	for seq := s.sndUna; seq < cum; seq++ {
		delete(s.sent, seq)
		delete(s.rexmit, seq)
	}
	acked := cum - s.sndUna
	s.sndUna = cum
	s.dupAcks = 0

	if s.inRecovery {
		if cum >= s.recover {
			// Full recovery: deflate to ssthresh.
			s.inRecovery = false
			s.cwnd = s.ssthresh
		} else {
			// Partial ACK (NewReno): retransmit the next hole, deflate by
			// the amount acked, and stay in recovery.
			s.transmit(s.sndUna, true)
			s.cwnd = maxf(s.cwnd-float64(acked)+1, 1)
		}
	} else if s.cwnd < s.ssthresh {
		s.cwnd += float64(acked) // slow start
	} else if s.algo == Cubic {
		// RFC 8312 §4.1: approach the cubic target gradually — per ACK the
		// window grows by (W(t+RTT) − cwnd)/cwnd, which spreads the convex
		// region's growth over an RTT instead of bursting to the target.
		if tgt := s.cubic.target(s.sim.Now()+s.rtt.Smoothed(), s.cwnd); tgt > s.cwnd {
			s.cwnd += (tgt - s.cwnd) / s.cwnd * float64(acked)
		}
	} else {
		s.cwnd += float64(acked) / s.cwnd // Reno congestion avoidance
	}
	s.clamp()
	s.traceCwnd()

	if s.limit > 0 && s.sndUna >= s.limit {
		s.done = true
		s.stopTimer()
		if s.Done != nil {
			s.Done()
		}
		return
	}
	if s.inFlight() == 0 {
		s.stopTimer()
	} else {
		s.armTimer()
	}
	s.trySend()
}

func (s *Sender) onDupAck() {
	if s.inFlight() == 0 {
		return
	}
	s.dupAcks++
	if s.inRecovery {
		s.cwnd++ // window inflation per extra dup ACK
		s.clamp()
		s.traceCwnd()
		s.trySend()
		return
	}
	if s.dupAcks == 3 {
		// Fast retransmit + fast recovery.
		s.cubic.onLoss(s.cwnd)
		if s.algo == Cubic {
			s.ssthresh = maxf(s.cwnd*cubicBeta, 2)
		} else {
			s.ssthresh = maxf(float64(s.inFlight())/2, 2)
		}
		s.cwnd = s.ssthresh + 3
		s.inRecovery = true
		s.recover = s.nextSeq
		s.clamp()
		s.traceCwnd()
		s.transmit(s.sndUna, true)
	}
}

func (s *Sender) clamp() {
	if s.cwnd > s.maxCwnd {
		s.cwnd = s.maxCwnd
	}
}

// Receiver is the receiving half: it consumes KindData packets via Handle,
// delivers in-order payload to its goodput sampler, and emits cumulative
// ACKs toward its egress.
type Receiver struct {
	sim  *simnet.Sim
	out  simnet.Handler
	src  simnet.Addr // this endpoint's address (ACK source)
	dst  simnet.Addr // the sender's address (ACK destination)
	flow uint64

	rcvNxt int64
	ooo    map[int64]bool

	// Goodput, when set, records every in-order payload delivery.
	Goodput *trace.Throughput
}

// NewReceiver builds the receiving half. out is the egress toward the
// sender (the path ACKs will take — on asymmetric links this is the shared
// uplink, which is the whole point of Figure 3).
func NewReceiver(sim *simnet.Sim, src, dst simnet.Addr, flow uint64, out simnet.Handler) *Receiver {
	return &Receiver{sim: sim, out: out, src: src, dst: dst, flow: flow, ooo: make(map[int64]bool)}
}

// Handle consumes a data packet and emits a cumulative ACK.
func (r *Receiver) Handle(pkt *simnet.Packet) {
	if pkt.Kind != KindData {
		return
	}
	switch {
	case pkt.Seq == r.rcvNxt:
		r.deliver()
		for r.ooo[r.rcvNxt] {
			delete(r.ooo, r.rcvNxt)
			r.deliver()
		}
	case pkt.Seq > r.rcvNxt:
		r.ooo[pkt.Seq] = true
	default:
		// Duplicate of already-delivered data: re-ACK below.
	}
	ack := &simnet.Packet{
		Src:     r.src,
		Dst:     r.dst,
		Flow:    r.flow,
		Size:    AckSize,
		Kind:    KindAck,
		Payload: ackInfo{cum: r.rcvNxt},
	}
	r.out.Handle(ack)
}

func (r *Receiver) deliver() {
	r.rcvNxt++
	if r.Goodput != nil {
		r.Goodput.Record(r.sim.Now(), MSS)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
