package simnet

import "time"

// Addr identifies an endpoint in a simulated topology. Addresses are opaque
// small integers assigned by the scenario builder.
type Addr int

// Packet is the unit of transmission. Size is the wire size in bytes and is
// the only field the link layer interprets; everything else is carried for
// the protocols and the measurement code.
type Packet struct {
	Src     Addr          // source endpoint
	Dst     Addr          // destination endpoint, used by Demux
	Flow    uint64        // flow identifier for fair queueing
	Size    int           // bytes on the wire
	Seq     int64         // protocol sequence number
	Prio    int           // ARTP priority level (see internal/core)
	Kind    int           // protocol-specific packet kind
	Enq     time.Duration // time of last enqueue (set by queues)
	Payload any           // protocol payload (headers, app data descriptors)
}

// Handler consumes packets delivered by a link or node.
type Handler interface {
	Handle(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *Packet)

// Handle calls f(pkt).
func (f HandlerFunc) Handle(pkt *Packet) { f(pkt) }

// Queue is the buffering discipline attached to a link. Enqueue reports
// whether the packet was accepted; a false return means the packet was
// dropped at the tail (the packet must not be delivered). Dequeue returns
// nil when empty. Implementations may drop or mark packets at dequeue time
// (AQM); a Dequeue that internally discards packets must keep searching and
// only return nil when truly empty.
type Queue interface {
	Enqueue(pkt *Packet, now time.Duration) bool
	Dequeue(now time.Duration) *Packet
	Len() int
	Bytes() int
}
