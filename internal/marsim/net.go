package marsim

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"marnet/internal/obs"
	"marnet/internal/phy"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

// udpOverhead is the per-datagram IPv4 (20B) + UDP (8B) header cost added
// to every simulated packet, so link serialization times match what the
// same payload would cost on a real socket.
const udpOverhead = 28

// datagram is what a simulated packet carries: the application bytes plus
// the addressing the receiving endpoint reports upward. The destination
// travels in two forms: a comparable key for routing and the trace's name
// id for the address, interned once per endpoint rather than per packet.
//
// A datagram, the simnet.Packet that carries it and its data buffer are one
// recycled record: Net.get hands one out per injected datagram and every
// terminal outcome returns it with Net.put — delivered, sink and endpoint
// closed here, and lost, filtered or tail-dropped on a link, which hands
// the record back through ReleasePayload.
type datagram struct {
	pkt     simnet.Packet // pkt.Payload is the datagram itself
	data    []byte        // the bytes, in room unless larger; a loan to recv while delivering
	room    [1500]byte    // one MTU, inline: a record (and a pool miss) is one heap object
	src     *Endpoint
	dst     netip.AddrPort // destination endpoint key (wire.PeerKey)
	dstName uint32         // the destination's trace name id
	cross   bool           // background cross-traffic, terminates at the sink
	free    bool           // on the free list: a second put is a double free
}

// ClonePayload implements simnet.PayloadCloner: a duplicated packet gets a
// record and a data buffer of its own, so each delivery recycles its own.
func (d *datagram) ClonePayload() any {
	c := d.src.n.get()
	c.data = append(c.data, d.data...)
	c.src, c.dst, c.dstName, c.cross = d.src, d.dst, d.dstName, d.cross
	return c
}

// ReleasePayload implements simnet.PayloadReleaser: a datagram a link loses
// or drops goes back on the free list.
func (d *datagram) ReleasePayload() { d.src.n.put(d) }

// Net is the in-memory datagram network: endpoints joined through a
// zero-delay core router, each behind its own uplink/downlink pair shaped
// by a phy.Profile. The path client→server costs the client's uplink plus
// the server's downlink — access link plus backbone, like the paper's
// offloading topology.
type Net struct {
	sim   *simnet.Sim
	trace *Trace

	endpoints map[netip.AddrPort]*Endpoint
	nextID    int
	links     []*simnet.Link
	free      []*datagram // recycled datagram records

	// Packet conservation accounting: every injected packet must end in
	// exactly one terminal counter (delivered, sink, dropClosed) or one
	// link-level loss counter. CheckConservation verifies the identity.
	appTx      int64 // datagrams sent by endpoints
	crossTx    int64 // cross-traffic packets injected
	delivered  int64 // datagrams handed to a live endpoint receiver
	sink       int64 // packets with no route (cross-traffic terminus)
	dropClosed int64 // datagrams arriving at a closed endpoint
}

// NewNet builds an empty network on sim, logging into trace.
func NewNet(sim *simnet.Sim, trace *Trace) *Net {
	return &Net{
		sim:       sim,
		trace:     trace,
		endpoints: make(map[netip.AddrPort]*Endpoint),
	}
}

// NewEndpoint attaches a named endpoint with links shaped by profile. The
// address is synthetic and deterministic: allocation order alone decides
// it, so traces are reproducible.
func (n *Net) NewEndpoint(name string, p phy.Profile) *Endpoint {
	id := n.nextID
	n.nextID++
	addr := &net.UDPAddr{
		IP:   net.IPv4(10, 0, byte(id/250), byte(id%250+1)),
		Port: 9000,
	}
	ep := &Endpoint{n: n, addr: addr, key: wire.PeerKey(addr), tid: n.trace.endpoint(addr.String())}
	ep.up = simnet.NewLink(n.sim, p.Up, p.OneWay, simnet.HandlerFunc(n.route),
		simnet.WithJitter(p.Jitter), simnet.WithLoss(p.Loss), simnet.WithName(name+"/up"))
	ep.down = simnet.NewLink(n.sim, p.Down, p.OneWay, simnet.HandlerFunc(ep.deliver),
		simnet.WithJitter(p.Jitter), simnet.WithLoss(p.Loss), simnet.WithName(name+"/down"))
	n.endpoints[ep.key] = ep
	n.links = append(n.links, ep.up, ep.down)
	return ep
}

// get takes a cleared datagram record off the free list (or makes one).
func (n *Net) get() *datagram {
	if k := len(n.free); k > 0 {
		d := n.free[k-1]
		n.free = n.free[:k-1]
		d.free = false
		return d
	}
	d := &datagram{}
	d.data = d.room[:0]
	return d
}

// put recycles a datagram at its terminal outcome; d is dead to the caller.
// A record put twice would be handed out twice, so put panics on one that
// is already free.
func (n *Net) put(d *datagram) {
	if d.free {
		panic("marsim: datagram record recycled twice")
	}
	wire.PoisonBuf(d.data)
	d.data = d.data[:0]
	d.src, d.dstName, d.dst, d.cross = nil, 0, netip.AddrPort{}, false
	d.free = true
	n.free = append(n.free, d)
}

// route is the core: an uplink delivered a packet, forward it onto the
// destination's downlink (or account its terminal fate).
func (n *Net) route(pkt *simnet.Packet) {
	d := pkt.Payload.(*datagram)
	ep, ok := n.endpoints[d.dst]
	if !ok {
		n.sink++
		if !d.cross { // cross-traffic termination is routine, not a trace event
			n.trace.packet(obs.EvDgramSink, d.src.tid, d.dstName, pkt.Size-udpOverhead)
		}
		n.put(d)
		return
	}
	if ep.closed {
		n.dropClosed++
		n.trace.packet(obs.EvDgramDrop, d.src.tid, d.dstName, pkt.Size-udpOverhead)
		n.put(d)
		return
	}
	ep.down.Send(pkt)
}

// CheckConservation verifies, after the event queue has drained, that no
// packet was silently created or destroyed: per link, delivered equals
// sent minus lost minus filter-dropped plus duplicated; globally, every
// injected datagram reached exactly one terminal outcome.
func (n *Net) CheckConservation() error {
	var lost, qdrops, fdrops, fdups int64
	for _, l := range n.links {
		st := l.Stats()
		if st.Delivered != st.SentPackets-st.LostPackets-st.FilterDrops+st.FilterDups {
			return fmt.Errorf("marsim: link %s leaks packets: %+v", l.Name(), st)
		}
		lost += st.LostPackets
		qdrops += st.QueueDrops
		fdrops += st.FilterDrops
		fdups += st.FilterDups
	}
	injected := n.appTx + n.crossTx + fdups
	terminal := n.delivered + n.sink + n.dropClosed + lost + qdrops + fdrops
	if injected != terminal {
		return fmt.Errorf("marsim: packet conservation violated: injected=%d (app=%d cross=%d dups=%d) terminal=%d (delivered=%d sink=%d dropClosed=%d lost=%d queueDrops=%d filterDrops=%d)",
			injected, n.appTx, n.crossTx, fdups,
			terminal, n.delivered, n.sink, n.dropClosed, lost, qdrops, fdrops)
	}
	return nil
}

// NetStats is a snapshot of the global packet accounting.
type NetStats struct {
	AppTx, Delivered, DropClosed int64
}

// Stats snapshots the network-wide packet counters.
func (n *Net) Stats() NetStats {
	return NetStats{AppTx: n.appTx, Delivered: n.delivered, DropClosed: n.dropClosed}
}

// Endpoint is one attachment point: a wire.PacketConn whose datagrams ride
// simulated links. Delivery is synchronous on the simulation loop, so the
// whole stack above it runs without a single goroutine.
type Endpoint struct {
	n      *Net
	addr   *net.UDPAddr
	key    netip.AddrPort // routing key in Net.endpoints
	tid    uint32         // addr's name id in the trace
	up     *simnet.Link
	down   *simnet.Link
	recv   func(pkt []byte, from *net.UDPAddr, backlog int)
	closed bool
}

var _ wire.PacketConn = (*Endpoint)(nil)

// WriteToUDP injects one datagram toward addr via this endpoint's uplink.
func (ep *Endpoint) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	if ep.closed {
		return 0, net.ErrClosed
	}
	n := ep.n
	n.appTx++
	d := n.get()
	d.data = append(d.data, b...)
	d.src, d.dst = ep, wire.PeerKey(addr)
	if dst, ok := n.endpoints[d.dst]; ok {
		d.dstName = dst.tid
	} else {
		d.dstName = n.trace.intern(addr.String()) // no such endpoint: the sink line still names it
	}
	n.trace.packet(obs.EvDgramTx, ep.tid, d.dstName, len(b))
	d.pkt = simnet.Packet{Size: len(b) + udpOverhead, Payload: d}
	ep.up.Send(&d.pkt)
	return len(b), nil
}

// deliver is the downlink handler: hand the datagram to the stack above.
// The bytes are a loan for the duration of recv, as with a socket's receive
// buffer: the record is recycled (poisoned first under -race) on return.
func (ep *Endpoint) deliver(pkt *simnet.Packet) {
	d := pkt.Payload.(*datagram)
	if ep.closed || ep.recv == nil {
		ep.n.dropClosed++
		ep.n.trace.packet(obs.EvDgramDrop, d.src.tid, d.dstName, pkt.Size-udpOverhead)
		ep.n.put(d)
		return
	}
	ep.n.delivered++
	ep.n.trace.packet(obs.EvDgramRx, d.src.tid, d.dstName, pkt.Size-udpOverhead)
	ep.recv(d.data, d.src.addr, 0)
	ep.n.put(d)
}

// LocalAddr reports the endpoint's synthetic address.
func (ep *Endpoint) LocalAddr() net.Addr { return ep.addr }

// UDPAddr is LocalAddr without the interface indirection (dial target).
func (ep *Endpoint) UDPAddr() *net.UDPAddr { return ep.addr }

// Start installs the inbound delivery callback.
func (ep *Endpoint) Start(recv func(pkt []byte, from *net.UDPAddr, backlog int)) { ep.recv = recv }

// Close detaches the endpoint; in-flight packets toward it are dropped
// (and accounted) on arrival.
func (ep *Endpoint) Close() error {
	ep.closed = true
	return nil
}

// Links exposes the endpoint's uplink and downlink for measurement.
func (ep *Endpoint) Links() (up, down *simnet.Link) { return ep.up, ep.down }

// Host models one mobile device: every endpoint it opens (each re-bind of
// a dialed conn opens a fresh one, like a fresh UDP socket) shares
// the host's current radio profile and partition state. SetProfile is a
// vertical handover applied to live links; Partition is total loss.
type Host struct {
	n           *Net
	name        string
	profile     phy.Profile
	partitioned bool
	upFilter    simnet.PacketFilter
	eps         []*Endpoint
}

// NewHost creates a host with an initial radio profile.
func (n *Net) NewHost(name string, p phy.Profile) *Host {
	return &Host{n: n, name: name, profile: p}
}

// NewEndpoint opens a fresh attachment (socket) on this host's radio.
func (h *Host) NewEndpoint() *Endpoint {
	ep := h.n.NewEndpoint(fmt.Sprintf("%s/%d", h.name, len(h.eps)), h.profile)
	h.eps = append(h.eps, ep)
	h.applyTo(ep)
	return ep
}

// SetProfile performs a vertical handover: all live endpoints' links take
// the new rate/delay/jitter/loss immediately; packets already in flight
// keep their old delivery times, like a real radio switch.
func (h *Host) SetProfile(p phy.Profile) {
	h.profile = p
	h.n.trace.Logf("host %s handover to %s", h.name, p.Name)
	for _, ep := range h.eps {
		h.applyTo(ep)
	}
}

// Partition toggles total packet loss on every live and future endpoint of
// this host — the device walked out of coverage.
func (h *Host) Partition(on bool) {
	h.partitioned = on
	h.n.trace.Logf("host %s partition=%v", h.name, on)
	for _, ep := range h.eps {
		h.applyTo(ep)
	}
}

// SetUplinkFilter attaches an external per-packet fault process (for
// example faults.NewLinkFilter with a Gilbert–Elliott burst model) to the
// uplink of every live and future endpoint of this host. Pass nil to clear
// it. The radio's own Bernoulli loss still applies on top.
func (h *Host) SetUplinkFilter(f simnet.PacketFilter) {
	h.upFilter = f
	for _, ep := range h.eps {
		h.applyTo(ep)
	}
}

func (h *Host) applyTo(ep *Endpoint) {
	p := h.profile
	loss := p.Loss
	if h.partitioned {
		loss = 1
	}
	ep.up.SetFilter(h.upFilter)
	ep.up.SetRate(p.Up)
	ep.up.SetDelay(p.OneWay)
	ep.up.SetJitter(p.Jitter)
	ep.up.SetLoss(loss)
	ep.down.SetRate(p.Down)
	ep.down.SetDelay(p.OneWay)
	ep.down.SetJitter(p.Jitter)
	ep.down.SetLoss(loss)
}

// Dialer returns a wire.ConnDialer whose conn opens a fresh endpoint on
// this host at the dial and at each re-bind — exactly how a dialed conn
// moves to a new socket after the old path fell silent.
func (h *Host) Dialer(server *Endpoint) wire.ConnDialer {
	return func(cfg wire.Config) (*wire.Conn, error) {
		return wire.DialWith(func() (wire.PacketConn, *net.UDPAddr, error) {
			return h.NewEndpoint(), server.UDPAddr(), nil
		}, cfg)
	}
}

// current returns the most recently opened live endpoint.
func (h *Host) current() *Endpoint {
	for i := len(h.eps) - 1; i >= 0; i-- {
		if !h.eps[i].closed {
			return h.eps[i]
		}
	}
	return nil
}

// StartCrossTraffic injects a constant-bit-rate background flow of
// pktSize-byte packets into this host's current uplink — the Figure 3
// competing upload that congests the asymmetric access link. The flow
// terminates at the network core (no destination endpoint). The returned
// stop function halts the flow.
func (h *Host) StartCrossTraffic(bps float64, pktSize int) (stop func()) {
	interval := time.Duration(float64(pktSize*8) / bps * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}
	stopped := false
	var ev simnet.Event
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		if ep := h.current(); ep != nil {
			h.n.crossTx++
			d := h.n.get()
			d.src, d.cross = ep, true // the zero dst routes nowhere
			d.pkt = simnet.Packet{Size: pktSize, Payload: d}
			ep.up.Send(&d.pkt)
		}
		ev = h.n.sim.Schedule(interval, tick)
	}
	h.n.trace.Logf("host %s cross-traffic start %.0fbps", h.name, bps)
	tick()
	return func() {
		if stopped {
			return
		}
		stopped = true
		ev.Cancel()
		h.n.trace.Logf("host %s cross-traffic stop", h.name)
	}
}
