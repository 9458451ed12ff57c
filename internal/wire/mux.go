package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"marnet/internal/vclock"
)

// Mux serves many ARTP peers over one datagram transport: each remote
// address — or, for a multipath client, each session, whichever path its
// frames arrive by — gets its own Conn (own streams, own congestion
// controller, own retransmission state), which is what a real offloading
// server needs — one surrogate, many mobile devices.
type Mux struct {
	pc    PacketConn
	clock vclock.Clock
	// ConfigFor builds the per-peer Config. It runs on the delivery path
	// when a new peer's first datagram arrives; returning a Config with a
	// nil OnMessage is fine (data is still acked).
	configFor func(peer *net.UDPAddr) Config

	mu     sync.Mutex
	conns  map[muxKey]*Conn
	closed bool
}

// muxKey names a Mux's conn: a multipath client's by its session, any
// other by its PeerKey.
type muxKey struct {
	peer    netip.AddrPort
	session uint64
}

// keyOf is the key of the conn a datagram from raddr belongs to. A frame
// with the path bit names its session at a fixed offset (header.go); the
// conn authenticates it with the rest of the header.
func keyOf(dgram []byte, raddr *net.UDPAddr) muxKey {
	if len(dgram) >= HeaderLen+pathExtLen && binary.LittleEndian.Uint16(dgram) == Magic && dgram[2]&flagPath != 0 {
		if s := binary.LittleEndian.Uint64(dgram[HeaderLen-2:]); s != 0 {
			return muxKey{session: s}
		}
	}
	return muxKey{peer: PeerKey(raddr)}
}

// PeerKey is the comparable form of a peer address, the key of every
// per-peer table on the datapath: building and hashing it allocates
// nothing, unlike addr.String(). IPv4-mapped addresses are unmapped, so
// the 4-byte and 16-byte spellings of one peer share a key.
func PeerKey(addr *net.UDPAddr) netip.AddrPort {
	ap := addr.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// MuxOption configures a Mux at listen time.
type MuxOption func(*Mux)

// WithMuxClock injects the clock driving every per-peer connection whose
// Config leaves Clock nil. Defaults to the system clock.
func WithMuxClock(clock vclock.Clock) MuxOption {
	return func(m *Mux) { m.clock = clock }
}

// ListenMux binds addr and starts accepting peers. configFor must not be
// nil.
func ListenMux(addr string, configFor func(peer *net.UDPAddr) Config, opts ...MuxOption) (*Mux, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %q: %w", addr, err)
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	m, err := ListenMuxVia(newUDPPacketConn(sock), configFor, opts...)
	if err != nil {
		sock.Close()
	}
	return m, err
}

// ListenMuxVia accepts peers over a caller-supplied transport (e.g. a
// simulated network endpoint). The Mux owns the transport and closes it on
// Close.
func ListenMuxVia(pc PacketConn, configFor func(peer *net.UDPAddr) Config, opts ...MuxOption) (*Mux, error) {
	if configFor == nil {
		return nil, fmt.Errorf("wire: nil configFor")
	}
	m := &Mux{
		pc:        pc,
		clock:     vclock.System,
		configFor: configFor,
		conns:     make(map[muxKey]*Conn),
	}
	for _, opt := range opts {
		opt(m)
	}
	m.pc.Start(m.route)
	return m, nil
}

// LocalAddr returns the bound address.
func (m *Mux) LocalAddr() *net.UDPAddr {
	addr, _ := m.pc.LocalAddr().(*net.UDPAddr)
	return addr
}

// Conns returns a snapshot of the live peer connections.
func (m *Mux) Conns() []*Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Conn, 0, len(m.conns))
	for _, c := range m.conns {
		out = append(out, c)
	}
	return out
}

// Close shuts down every peer connection and the transport.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := make([]*Conn, 0, len(m.conns))
	for _, c := range m.conns {
		conns = append(conns, c)
	}
	m.conns = map[muxKey]*Conn{}
	m.mu.Unlock()

	for _, c := range conns {
		c.Close() //nolint:errcheck // best-effort teardown
	}
	return m.pc.Close()
}

// route is the transport's delivery callback: it finds (or creates) the
// peer's connection and hands the datagram over on the goroutine that read
// it — a socket's reader, a demux shard's drain or a simulation's event
// loop — exactly as a Dial or Listen conn receives.
func (m *Mux) route(dgram []byte, raddr *net.UDPAddr, backlog int) {
	if conn := m.connFor(keyOf(dgram, raddr), raddr); conn != nil { // nil: shutting down
		conn.handleDatagram(dgram, raddr, backlog)
	}
}

// connFor returns (creating if necessary) the connection of key, whose
// datagram came from raddr.
func (m *Mux) connFor(key muxKey, raddr *net.UDPAddr) *Conn {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	if c, ok := m.conns[key]; ok {
		m.mu.Unlock()
		return c
	}
	m.mu.Unlock()

	// Build outside the lock: configFor is user code.
	cfg := m.configFor(raddr)
	c, err := newMuxConn(m, key, raddr, cfg)
	if err != nil {
		return nil
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		c.Close() //nolint:errcheck // racing shutdown
		return nil
	}
	if existing, ok := m.conns[key]; ok {
		// Lost a race with another datagram from the same peer.
		m.mu.Unlock()
		c.Close() //nolint:errcheck // duplicate
		return existing
	}
	m.conns[key] = c
	m.mu.Unlock()
	return c
}

// dropConn removes a closing connection from the peer table, but only if
// it is still the registered connection for its key — a duplicate conn
// losing the accept race must not evict the winner.
func (m *Mux) dropConn(key muxKey, c *Conn) {
	m.mu.Lock()
	if m.conns[key] == c {
		delete(m.conns, key)
	}
	m.mu.Unlock()
}

// newMuxConn builds a per-peer Conn that shares the mux transport.
func newMuxConn(m *Mux, key muxKey, peer *net.UDPAddr, cfg Config) (*Conn, error) {
	if cfg.Clock == nil {
		cfg.Clock = m.clock
	}
	c, err := newConnCommon(m.pc, peer, cfg)
	if err != nil {
		return nil, err
	}
	c.onClose = func() { m.dropConn(key, c) }
	c.start()
	return c, nil
}
