package core

import (
	"time"

	"marnet/internal/simnet"
	"marnet/internal/trace"
)

// ReceiverConfig configures an ARTP receiver.
type ReceiverConfig struct {
	Local, Peer simnet.Addr
	FlowID      uint64
	// AckPath maps a path ID to the reverse handler used to send control
	// packets back over the same path. DefaultOut is used for unknown
	// paths.
	AckPath    map[int]simnet.Handler
	DefaultOut simnet.Handler
	// ReorderWait is how long the receiver waits after detecting a gap
	// before NACKing it (absorbs reordering; default 5 ms).
	ReorderWait time.Duration
	// OnDeliver, when set, is invoked for every in-time data delivery.
	OnDeliver func(stream int, hdr DataHdr)
}

// RStream aggregates receiver-side state and statistics for one stream.
type RStream struct {
	recv   SeqWindow
	groups map[int64]*fecGroupState

	Delivered   int64 // in-time data packets
	Late        int64 // data that arrived after its deadline
	Duplicates  int64
	Recovered   int64 // holes repaired by FEC group completion
	Latency     trace.DurStats
	GoodputRate *trace.Throughput // optional
}

type fecGroupState struct {
	k, m     int
	got      map[int]bool
	complete bool
}

// receiverWindow is how many sequences back a Receiver remembers per
// stream; anything older is treated as a duplicate.
const receiverWindow = 1024

// Receiver is the ARTP receiving endpoint: it acks every packet (the ack
// carries the echoed send timestamp that drives the delay-based congestion
// controller), NACKs gaps on reliable streams, and performs FEC group
// accounting.
type Receiver struct {
	sim     *simnet.Sim
	cfg     ReceiverConfig
	streams map[int]*RStream

	Acked int64
	Nacks int64
}

// NewReceiver builds a receiver.
func NewReceiver(sim *simnet.Sim, cfg ReceiverConfig) *Receiver {
	if cfg.ReorderWait <= 0 {
		cfg.ReorderWait = 5 * time.Millisecond
	}
	return &Receiver{sim: sim, cfg: cfg, streams: make(map[int]*RStream)}
}

// Stream returns the receiver state for a stream id (creating it lazily, so
// statistics are available even for streams that lost their first packets).
func (r *Receiver) Stream(id int) *RStream {
	st, ok := r.streams[id]
	if !ok {
		st = &RStream{
			recv:   NewSeqWindow(receiverWindow),
			groups: make(map[int64]*fecGroupState),
		}
		r.streams[id] = st
	}
	return st
}

func (r *Receiver) out(pathID int) simnet.Handler {
	if h, ok := r.cfg.AckPath[pathID]; ok {
		return h
	}
	return r.cfg.DefaultOut
}

// Handle consumes data packets.
func (r *Receiver) Handle(pkt *simnet.Packet) {
	if pkt.Kind != KindData {
		return
	}
	hdr, ok := pkt.Payload.(DataHdr)
	if !ok {
		return
	}
	now := r.sim.Now()
	st := r.Stream(hdr.Stream)

	// Ack everything (including repair packets) for RTT and path liveness.
	r.ack(hdr)

	if hdr.FECGroup != 0 {
		r.fecAccount(st, hdr)
	}
	if hdr.Repair {
		return
	}

	expected := st.recv.Next()
	if !st.recv.Mark(hdr.Seq) {
		st.Duplicates++
		return
	}

	if hdr.Deadline > 0 && now > hdr.Deadline {
		st.Late++
	} else {
		st.Delivered++
		st.Latency.Observe(now - pkt.Created)
		if st.GoodputRate != nil {
			st.GoodputRate.Record(now, hdr.AppBytes)
		}
		if r.cfg.OnDeliver != nil {
			r.cfg.OnDeliver(hdr.Stream, hdr)
		}
	}

	// Gap detection for reliable classes: if this packet jumps ahead of
	// expected, schedule a NACK for the holes after the reorder wait.
	if hdr.Seq > expected {
		r.scheduleNack(hdr.Stream, st, expected, hdr.Seq, hdr.PathID)
	}
}

func (r *Receiver) ack(hdr DataHdr) {
	ackPkt := &simnet.Packet{
		ID:      r.sim.NextPacketID(),
		Src:     r.cfg.Local,
		Dst:     r.cfg.Peer,
		Flow:    r.cfg.FlowID,
		Size:    AckSize,
		Kind:    KindAck,
		Created: r.sim.Now(),
		Payload: AckHdr{
			Stream:   hdr.Stream,
			Seq:      hdr.Seq,
			PathID:   hdr.PathID,
			EchoSend: hdr.SendTime,
		},
	}
	r.Acked++
	r.out(hdr.PathID).Handle(ackPkt)
}

// scheduleNack collects the missing range [from, to) and reports whatever
// is still missing (and not FEC-recovered) after the reorder wait.
func (r *Receiver) scheduleNack(streamID int, st *RStream, from, to int64, pathID int) {
	from = max(from, st.recv.Floor()) // older holes can no longer be filled
	missing := make([]int64, 0, to-from)
	for seq := from; seq < to; seq++ {
		if st.recv.Nackable(seq) {
			missing = append(missing, seq)
		}
	}
	if len(missing) == 0 {
		return
	}
	r.sim.Schedule(r.cfg.ReorderWait, func() {
		still := missing[:0]
		for _, seq := range missing {
			if st.recv.Nack(seq) {
				still = append(still, seq)
			}
		}
		if len(still) == 0 {
			return
		}
		nack := &simnet.Packet{
			ID:      r.sim.NextPacketID(),
			Src:     r.cfg.Local,
			Dst:     r.cfg.Peer,
			Flow:    r.cfg.FlowID,
			Size:    NackSize,
			Kind:    KindNack,
			Created: r.sim.Now(),
			Payload: NackHdr{Stream: streamID, Missing: append([]int64(nil), still...)},
		}
		r.Nacks++
		r.out(pathID).Handle(nack)
	})
}

// fecAccount tracks group completeness: once any K of the K+M symbols of a
// group have arrived, every hole in the group is recoverable without
// retransmission; we count those recoveries and mark the data as received
// so it is never NACKed.
func (r *Receiver) fecAccount(st *RStream, hdr DataHdr) {
	g, ok := st.groups[hdr.FECGroup]
	if !ok {
		g = &fecGroupState{k: hdr.FECK, m: hdr.FECM, got: make(map[int]bool)}
		st.groups[hdr.FECGroup] = g
	}
	g.got[hdr.FECIndex] = true
	if g.complete || len(g.got) < g.k {
		return
	}
	g.complete = true
	// Data symbols of this group have indexes 0..k-1 and occupy consecutive
	// stream sequence numbers ending at hdr's data seq alignment. Recover
	// any data index not directly received. A recovered hole only counts as
	// an in-time delivery if the completing packet's deadline has not
	// passed (the hole's own deadline is at least as old, so this is the
	// optimistic bound by at most one FEC group of slack).
	inTime := hdr.Deadline == 0 || r.sim.Now() <= hdr.Deadline
	base := (hdr.FECGroup - 1) * int64(g.k)
	for idx := 0; idx < g.k; idx++ {
		seq := base + int64(idx)
		if st.recv.Mark(seq) {
			st.Recovered++
			if inTime {
				st.Delivered++
			} else {
				st.Late++
			}
		}
	}
	// Forget old groups to bound memory.
	for id := range st.groups {
		if id < hdr.FECGroup-64 {
			delete(st.groups, id)
		}
	}
}
