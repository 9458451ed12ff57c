package marsim

import (
	"net"

	"marnet/internal/simnet"
	"marnet/internal/wire"
)

// LinkEndpoint is a wire.PacketConn on a topology the caller builds from
// simnet links, queues and demuxes — the paper's studies, whose links also
// carry TCP flows and plain packets that Net's router cannot route. Each
// datagram leaves as a simnet.Packet carrying a copy of its bytes, handed
// to out; the endpoint is itself the simnet.Handler its address is
// registered under on the Demux that delivers to it. Delivery runs on the
// simulation loop, so a wire.Conn over it spawns no goroutine.
type LinkEndpoint struct {
	sim    *simnet.Sim
	addr   simnet.Addr
	udp    *net.UDPAddr
	out    simnet.Handler
	recv   func(pkt []byte, from *net.UDPAddr)
	closed bool
}

var _ wire.PacketConn = (*LinkEndpoint)(nil)

// NewLinkEndpoint attaches an endpoint at addr whose datagrams go to out.
func NewLinkEndpoint(sim *simnet.Sim, addr simnet.Addr, out simnet.Handler) *LinkEndpoint {
	return &LinkEndpoint{sim: sim, addr: addr, udp: LinkAddr(addr), out: out}
}

// LinkAddr is the UDP address of the LinkEndpoint at a: what a Conn dials
// and what a datagram from a reports as its source.
func LinkAddr(a simnet.Addr) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(10, 1, byte(a>>8), byte(a)), Port: 9000}
}

// WriteToUDP sends one datagram toward the endpoint at addr. The packet's
// Flow is the sender's address, so fair queues see one flow per endpoint.
func (e *LinkEndpoint) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	if e.closed {
		return 0, net.ErrClosed
	}
	var dst simnet.Addr
	if ip := addr.IP.To4(); ip != nil {
		dst = simnet.Addr(ip[2])<<8 | simnet.Addr(ip[3])
	}
	e.out.Handle(&simnet.Packet{
		ID: e.sim.NextPacketID(), Src: e.addr, Dst: dst, Flow: uint64(e.addr),
		Size: len(b) + udpOverhead, Created: e.sim.Now(), Payload: append([]byte(nil), b...),
	})
	return len(b), nil
}

// Handle delivers an arriving packet to the stack above.
func (e *LinkEndpoint) Handle(pkt *simnet.Packet) {
	if b, ok := pkt.Payload.([]byte); ok && !e.closed && e.recv != nil {
		e.recv(b, LinkAddr(pkt.Src))
	}
}

// LocalAddr reports the endpoint's address.
func (e *LinkEndpoint) LocalAddr() net.Addr { return e.udp }

// Start installs the inbound delivery callback.
func (e *LinkEndpoint) Start(recv func(pkt []byte, from *net.UDPAddr)) { e.recv = recv }

// Synchronous reports event-loop delivery: true, this is a simulation.
func (e *LinkEndpoint) Synchronous() bool { return true }

// Close detaches the endpoint: it sends nothing more, and drops what
// arrives.
func (e *LinkEndpoint) Close() error {
	e.closed = true
	return nil
}
