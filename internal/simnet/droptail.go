package simnet

import "time"

// DropTail is a FIFO queue bounded by packet count and/or byte count. A zero
// limit means unlimited in that dimension. It is the default discipline for
// links and models the oversized kernel buffers the paper blames for
// uplink-induced latency (Section VI-H: "usually oversized, around 1000
// packets").
type DropTail struct {
	MaxPackets int
	MaxBytes   int

	pkts  []*Packet
	head  int
	bytes int
}

var _ Queue = (*DropTail)(nil)

// NewDropTail returns a FIFO bounded to maxPackets packets (0 = unlimited).
func NewDropTail(maxPackets int) *DropTail {
	return &DropTail{MaxPackets: maxPackets}
}

// Enqueue appends pkt unless a bound would be exceeded.
func (q *DropTail) Enqueue(pkt *Packet, now time.Duration) bool {
	if q.MaxPackets > 0 && q.Len() >= q.MaxPackets || q.MaxBytes > 0 && q.bytes+pkt.Size > q.MaxBytes {
		return false
	}
	pkt.Enq = now
	q.pkts = append(q.pkts, pkt)
	q.bytes += pkt.Size
	return true
}

// Dequeue removes and returns the oldest packet, or nil when empty.
func (q *DropTail) Dequeue(now time.Duration) *Packet {
	if q.head >= len(q.pkts) {
		return nil
	}
	pkt := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	q.bytes -= pkt.Size
	// Compact once the dead prefix dominates, to bound memory.
	if q.head > 64 && q.head*2 >= len(q.pkts) {
		q.pkts = append(q.pkts[:0], q.pkts[q.head:]...)
		q.head = 0
	}
	return pkt
}

// Len reports the number of queued packets.
func (q *DropTail) Len() int { return len(q.pkts) - q.head }

// Bytes reports the number of queued bytes.
func (q *DropTail) Bytes() int { return q.bytes }
