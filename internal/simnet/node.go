package simnet

import "time"

// Demux dispatches packets to per-address handlers by destination. It is the
// terminal element of most topologies: endpoints register themselves under
// their address.
type Demux struct {
	handlers map[Addr]Handler
}

// NewDemux returns an empty demultiplexer.
func NewDemux() *Demux {
	return &Demux{handlers: make(map[Addr]Handler)}
}

// Register binds addr to h, replacing any previous binding.
func (d *Demux) Register(addr Addr, h Handler) { d.handlers[addr] = h }

// Handle routes pkt by destination address; a packet for an address no
// handler holds is dropped.
func (d *Demux) Handle(pkt *Packet) {
	if h, ok := d.handlers[pkt.Dst]; ok {
		h.Handle(pkt)
	}
}

// Collector records every packet it receives, for tests and measurement.
type Collector struct {
	Packets []*Packet
	Times   []time.Duration
	sim     *Sim
}

// NewCollector returns a collector stamping arrivals with sim time.
func NewCollector(sim *Sim) *Collector { return &Collector{sim: sim} }

// Handle records pkt.
func (c *Collector) Handle(pkt *Packet) {
	c.Packets = append(c.Packets, pkt)
	if c.sim != nil {
		c.Times = append(c.Times, c.sim.Now())
	}
}

// Sink silently discards packets (a /dev/null endpoint).
type Sink struct{}

// Handle discards pkt.
func (*Sink) Handle(*Packet) {}

// Chain builds a multi-hop unidirectional path from a sequence of links:
// each link delivers into the next; the last delivers to dst. It returns the
// ingress handler. Links must be freshly constructed with a nil destination
// chain position; Chain rewires their destinations.
type hop struct {
	Rate  float64
	Delay time.Duration
	Opts  []LinkOption
}

// PathSpec describes one hop of a Path.
type PathSpec = hop

// Hop constructs a PathSpec.
func Hop(rate float64, delay time.Duration, opts ...LinkOption) PathSpec {
	return PathSpec{Rate: rate, Delay: delay, Opts: opts}
}

// NewPath builds a chain of store-and-forward links described by specs,
// terminating at dst, and returns the ingress link.
func NewPath(sim *Sim, dst Handler, specs ...PathSpec) *Link {
	next := dst
	var first *Link
	for i := len(specs) - 1; i >= 0; i-- {
		sp := specs[i]
		first = NewLink(sim, sp.Rate, sp.Delay, next, sp.Opts...)
		next = first
	}
	return first
}
