// Package queue implements the queueing disciplines the paper discusses for
// MAR uplinks (Section VI-H): FQ-CoDel active queue management and a
// strict-priority discipline for classful traffic. Both implement
// simnet.Queue. The CoDel law itself — RFC 8289's controller, shared with
// overload.Admission — is the standard-library-only subpackage codel, so
// the serving path can run it without linking the simulator.
package queue

import (
	"time"

	"marnet/internal/queue/codel"
	"marnet/internal/simnet"
)

// FQCoDel is the FlowQueue-CoDel packet scheduler (RFC 8290): packets are
// hashed into per-flow sub-queues served by deficit round robin, with a
// CoDel instance per flow. New flows get priority over old flows, which is
// what gives sparse latency-sensitive flows (MAR metadata, ACKs) low delay
// even when bulk uploads fill the link.
type FQCoDel struct {
	Quantum  int // DRR quantum in bytes
	MaxPkts  int // total packet bound across all flows; 0 = unlimited
	NumFlows int // hash buckets

	flows    []*fqFlow
	newFlows []*fqFlow
	oldFlows []*fqFlow
	total    int
	bytes    int
}

// fqFlow is one flow's sub-queue: a FIFO judged by the CoDel law at
// dequeue, packets whose sojourn stays above codel.Target for a full
// codel.Interval dropped with spacing decreasing by the inverse square
// root of the drop count.
type fqFlow struct {
	fifo    simnet.DropTail
	law     codel.Law
	deficit int
	active  bool
}

var _ simnet.Queue = (*FQCoDel)(nil)

// NewFQCoDel returns an FQ-CoDel queue with the given total packet bound (0
// = unlimited), 1024 flow buckets, and a quantum of one MTU.
func NewFQCoDel(maxPkts int) *FQCoDel {
	q := &FQCoDel{Quantum: 1514, MaxPkts: maxPkts, NumFlows: 1024}
	q.flows = make([]*fqFlow, q.NumFlows)
	return q
}

func (q *FQCoDel) flowOf(pkt *simnet.Packet) *fqFlow {
	// Multiplicative hash of the flow ID into the bucket space.
	h := pkt.Flow * 0x9e3779b97f4a7c15
	idx := int(h % uint64(q.NumFlows))
	f := q.flows[idx]
	if f == nil {
		f = &fqFlow{}
		q.flows[idx] = f
	}
	return f
}

// Enqueue hashes pkt to its flow queue.
func (q *FQCoDel) Enqueue(pkt *simnet.Packet, now time.Duration) bool {
	if q.MaxPkts > 0 && q.total >= q.MaxPkts {
		return false
	}
	f := q.flowOf(pkt)
	f.fifo.Enqueue(pkt, now) // unbounded: the bound is the total above
	q.total++
	q.bytes += pkt.Size
	if !f.active {
		f.active = true
		f.deficit = q.Quantum
		q.newFlows = append(q.newFlows, f)
	}
	return true
}

// Dequeue serves new flows first, then old flows, DRR within each list.
func (q *FQCoDel) Dequeue(now time.Duration) *simnet.Packet {
	for {
		var f *fqFlow
		fromNew := false
		if len(q.newFlows) > 0 {
			f = q.newFlows[0]
			fromNew = true
		} else if len(q.oldFlows) > 0 {
			f = q.oldFlows[0]
		} else {
			return nil
		}
		if f.deficit <= 0 {
			f.deficit += q.Quantum
			// Move to the back of the old list.
			q.rotate(f, fromNew)
			continue
		}
		beforeLen, beforeBytes := f.fifo.Len(), f.fifo.Bytes()
		pkt := f.dequeue(now)
		// Account every packet CoDel removed (AQM drops plus the returned
		// packet) against our aggregate counters in one step.
		q.total -= beforeLen - f.fifo.Len()
		q.bytes -= beforeBytes - f.fifo.Bytes()
		if pkt == nil {
			// Flow is empty: a new flow that empties becomes inactive (RFC
			// 8290 §4.1.2 simplified: we do not keep empty flows on lists).
			q.deactivate(f, fromNew)
			continue
		}
		f.deficit -= pkt.Size
		if fromNew {
			// After servicing, a new flow moves to the old list so it cannot
			// starve others.
			q.newFlows = q.newFlows[1:]
			q.oldFlows = append(q.oldFlows, f)
		}
		return pkt
	}
}

// dequeue hands out the flow's head, first dropping every head the law
// condemns. The law drops only when something waits behind the head —
// here, more than an MTU of it — so a dropped head always has a successor.
func (f *fqFlow) dequeue(now time.Duration) *simnet.Packet {
	pkt := f.fifo.Dequeue(now)
	if pkt == nil {
		f.law.Stop()
		return nil
	}
	for f.law.Drop(now-pkt.Enq, now, f.fifo.Bytes() > 1500) {
		pkt = f.fifo.Dequeue(now)
	}
	return pkt
}

func (q *FQCoDel) rotate(f *fqFlow, fromNew bool) {
	if fromNew {
		q.newFlows = q.newFlows[1:]
	} else {
		q.oldFlows = q.oldFlows[1:]
	}
	q.oldFlows = append(q.oldFlows, f)
}

func (q *FQCoDel) deactivate(f *fqFlow, fromNew bool) {
	if fromNew {
		q.newFlows = q.newFlows[1:]
	} else {
		q.oldFlows = q.oldFlows[1:]
	}
	f.active = false
}

// Len reports total queued packets.
func (q *FQCoDel) Len() int { return q.total }

// Bytes reports total queued bytes.
func (q *FQCoDel) Bytes() int { return q.bytes }
