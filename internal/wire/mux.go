package wire

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"

	"marnet/internal/vclock"
)

// Mux serves many ARTP peers over one datagram transport: each remote
// address gets its own Conn (own streams, own congestion controller, own
// retransmission state), which is what a real offloading server needs —
// one surrogate, many mobile devices.
type Mux struct {
	pc    PacketConn
	clock vclock.Clock
	// ConfigFor builds the per-peer Config. It runs on the delivery path
	// when a new peer's first datagram arrives; returning a Config with a
	// nil OnMessage is fine (data is still acked).
	configFor func(peer *net.UDPAddr) Config
	// OnConn, when set, is invoked for every newly accepted peer. Set it
	// via SetOnConn (or before any client traffic arrives).
	OnConn func(conn *Conn, peer *net.UDPAddr)

	idleTimeout time.Duration

	mu           sync.Mutex
	conns        map[netip.AddrPort]*Conn // keyed by PeerKey
	onConnClosed func(conn *Conn, peer *net.UDPAddr)
	closed       bool
	evictTimer   vclock.Timer

	// Stats (guarded by mu).
	Accepted int64
	Evicted  int64 // peers closed by idle eviction
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

// WithIdleTimeout enables idle-peer eviction: a peer that has sent nothing
// (not even a keepalive) for d is closed and removed, so an offloading
// server's per-peer state tracks its live population instead of every
// address that ever appeared.
func WithIdleTimeout(d time.Duration) MuxOption {
	return func(m *Mux) { m.idleTimeout = d }
}

// WithMuxClock injects the clock driving idle eviction and every per-peer
// connection whose Config leaves Clock nil. Defaults to the system clock.
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
		conns:     make(map[netip.AddrPort]*Conn),
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.idleTimeout > 0 {
		m.mu.Lock()
		m.evictTimer = m.clock.AfterFunc(m.evictPeriod(), m.evictFire)
		m.mu.Unlock()
	}
	m.pc.Start(m.route)
	return m, nil
}

// SetOnConn installs the new-peer callback race-free.
func (m *Mux) SetOnConn(fn func(conn *Conn, peer *net.UDPAddr)) {
	m.mu.Lock()
	m.OnConn = fn
	m.mu.Unlock()
}

// SetOnConnClosed installs a callback fired whenever a registered peer
// connection is closed and removed — by idle eviction or by an explicit
// Close on the peer's Conn. It does not fire during Mux.Close teardown.
// Layers that key per-peer state on the mux (e.g. an RPC server) use this
// to drop their entries instead of leaking one per departed address.
func (m *Mux) SetOnConnClosed(fn func(conn *Conn, peer *net.UDPAddr)) {
	m.mu.Lock()
	m.onConnClosed = fn
	m.mu.Unlock()
}

func (m *Mux) evictPeriod() time.Duration {
	period := m.idleTimeout / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	return period
}

// evictFire closes peers that have been silent longer than idleTimeout and
// re-arms itself. Peers are scanned in address order so eviction order is
// deterministic under a virtual clock.
func (m *Mux) evictFire() {
	var idle []*Conn
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	keys := make([]netip.AddrPort, 0, len(m.conns))
	for k := range m.conns {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, netip.AddrPort.Compare)
	for _, k := range keys {
		c := m.conns[k]
		if m.clock.Since(c.LastActivity()) > m.idleTimeout {
			idle = append(idle, c)
			m.Evicted++
		}
	}
	m.evictTimer = m.clock.AfterFunc(m.evictPeriod(), m.evictFire)
	m.mu.Unlock()
	for _, c := range idle {
		c.Close() //nolint:errcheck // eviction is best-effort
	}
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
	if m.evictTimer != nil {
		m.evictTimer.Stop()
		m.evictTimer = nil
	}
	conns := make([]*Conn, 0, len(m.conns))
	for _, c := range m.conns {
		conns = append(conns, c)
	}
	m.conns = map[netip.AddrPort]*Conn{}
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
	if conn := m.connFor(raddr); conn != nil { // nil: shutting down
		conn.handleDatagram(dgram, raddr, backlog)
	}
}

// connFor returns (creating if necessary) the peer's connection.
func (m *Mux) connFor(raddr *net.UDPAddr) *Conn {
	key := PeerKey(raddr)
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
	c, err := newMuxConn(m, raddr, cfg)
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
	m.Accepted++
	onConn := m.OnConn
	m.mu.Unlock()
	if onConn != nil {
		onConn(c, raddr)
	}
	return c
}

// dropConn removes a closing connection from the peer table, but only if
// it is still the registered connection for its key — a duplicate conn
// losing the accept race must not evict the winner.
func (m *Mux) dropConn(key netip.AddrPort, c *Conn) {
	m.mu.Lock()
	var closed func(*Conn, *net.UDPAddr)
	if m.conns[key] == c {
		delete(m.conns, key)
		closed = m.onConnClosed
	}
	m.mu.Unlock()
	if closed != nil {
		closed(c, c.peer)
	}
}

// newMuxConn builds a per-peer Conn that shares the mux transport.
func newMuxConn(m *Mux, peer *net.UDPAddr, cfg Config) (*Conn, error) {
	if cfg.Clock == nil {
		cfg.Clock = m.clock
	}
	c, err := newConnCommon(m.pc, peer, cfg)
	if err != nil {
		return nil, err
	}
	c.muxced = true
	key := PeerKey(peer)
	c.onClose = func() { m.dropConn(key, c) }
	c.start()
	return c, nil
}
