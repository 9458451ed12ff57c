package queue

import (
	"time"

	"marnet/internal/simnet"
)

// StrictPriority serves band 0 exhaustively before band 1, and so on. The
// band of a packet is chosen by the Classify function (default: the packet's
// Prio field clamped into range). Each band is a bounded FIFO.
//
// The paper's Section VI-H suggests combining latency queueing with low
// priority queues so MAR control traffic is never stuck behind bulk frames;
// this discipline is the building block for that.
type StrictPriority struct {
	Classify func(*simnet.Packet) int

	bands []simnet.DropTail
}

var _ simnet.Queue = (*StrictPriority)(nil)

// NewStrictPriority creates n bands each bounded to perBandPkts packets
// (0 = unlimited).
func NewStrictPriority(n, perBandPkts int) *StrictPriority {
	if n < 1 {
		n = 1
	}
	q := &StrictPriority{bands: make([]simnet.DropTail, n)}
	for i := range q.bands {
		q.bands[i].MaxPackets = perBandPkts
	}
	return q
}

func (q *StrictPriority) bandOf(pkt *simnet.Packet) int {
	b := pkt.Prio
	if q.Classify != nil {
		b = q.Classify(pkt)
	}
	if b < 0 {
		b = 0
	}
	if b >= len(q.bands) {
		b = len(q.bands) - 1
	}
	return b
}

// Enqueue places pkt into its band.
func (q *StrictPriority) Enqueue(pkt *simnet.Packet, now time.Duration) bool {
	return q.bands[q.bandOf(pkt)].Enqueue(pkt, now)
}

// Dequeue returns the head of the lowest-numbered non-empty band.
func (q *StrictPriority) Dequeue(now time.Duration) *simnet.Packet {
	for i := range q.bands {
		if pkt := q.bands[i].Dequeue(now); pkt != nil {
			return pkt
		}
	}
	return nil
}

// Len reports total queued packets.
func (q *StrictPriority) Len() int {
	n := 0
	for i := range q.bands {
		n += q.bands[i].Len()
	}
	return n
}

// Bytes reports total queued bytes.
func (q *StrictPriority) Bytes() int {
	n := 0
	for i := range q.bands {
		n += q.bands[i].Bytes()
	}
	return n
}
