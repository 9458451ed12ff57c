// Package queue implements the queueing disciplines the paper discusses for
// MAR uplinks (Section VI-H): CoDel and FQ-CoDel active queue management,
// and a strict-priority discipline for classful traffic. All disciplines
// implement simnet.Queue. The CoDel law itself — RFC 8289's controller,
// shared with overload.Admission — is the standard-library-only subpackage
// codel, so the serving path can run it without linking the simulator.
package queue

import (
	"time"

	"marnet/internal/queue/codel"
	"marnet/internal/simnet"
)

// CoDel is the Controlled Delay AQM (RFC 8289): packets whose sojourn time
// stays above codel.Target for a full codel.Interval are dropped at
// dequeue, with drop spacing decreasing by the inverse square root of the
// drop count.
type CoDel struct {
	MaxPkts int // tail bound; 0 = unlimited

	fifo  simnet.DropTail
	law   codel.Law
	drops int64
}

var _ simnet.Queue = (*CoDel)(nil)

// NewCoDel returns a CoDel queue with the given hard packet bound (0 =
// unlimited).
func NewCoDel(maxPkts int) *CoDel {
	return &CoDel{MaxPkts: maxPkts}
}

// Enqueue appends pkt, stamping its enqueue time.
func (c *CoDel) Enqueue(pkt *simnet.Packet, now time.Duration) bool {
	if c.MaxPkts > 0 && c.fifo.Len() >= c.MaxPkts {
		c.drops++
		return false
	}
	return c.fifo.Enqueue(pkt, now)
}

// Len reports queued packets.
func (c *CoDel) Len() int { return c.fifo.Len() }

// Bytes reports queued bytes.
func (c *CoDel) Bytes() int { return c.fifo.Bytes() }

// Drops reports AQM plus tail drops.
func (c *CoDel) Drops() int64 { return c.drops + c.fifo.Drops() }

// Dequeue hands out the head, first dropping every head the law condemns.
// The law drops only when something waits behind the head — here, more
// than an MTU of it — so a dropped head always has a successor.
func (c *CoDel) Dequeue(now time.Duration) *simnet.Packet {
	pkt := c.fifo.Dequeue(now)
	if pkt == nil {
		c.law.Stop()
		return nil
	}
	for c.law.Drop(now-pkt.Enq, now, c.fifo.Bytes() > 1500) {
		c.drops++
		pkt = c.fifo.Dequeue(now)
	}
	return pkt
}
