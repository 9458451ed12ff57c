// PathRouter is the server side of multipath ARTP. A server keeps its one
// listening socket; the router slots between that socket and the Conn
// machinery (ListenVia(router, ...)) and makes every client's N subflows
// look like a single peer:
//
//   - each path frame's session id maps the datagram onto one logical
//     client, addressed upward by a stable canonical address, so the
//     server Conn sees one peer no matter which access link delivered
//     the frame;
//   - probes are answered in place (the echo is the client's RTT sample)
//     and their advertisement (SRTT, probing cadence, state) is recorded,
//     so the router can rank a client's return paths without ever
//     probing them itself;
//   - downlink frames pick the freshest, lowest-advertised-RTT live path
//     and can carry their own cross-path FEC;
//   - datagrams that are not path frames pass through untouched, so
//     legacy single-path clients keep working on the same socket.
package wire

import (
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"time"

	"marnet/internal/vclock"
)

// RouterConfig tunes a PathRouter.
type RouterConfig struct {
	// Clock supplies time and timers (nil = system clock).
	Clock vclock.Clock
	// FEC enables cross-path parity on the downlink (client→server parity
	// is the client's own business).
	FEC PathFEC
}

// maxRouterSessions bounds a PathRouter's per-client state; beyond it the
// longest-silent session is evicted.
const maxRouterSessions = 1024

// routerPath is the router's view of one client subflow, built entirely
// from what the client shows it: the source address its datagrams arrive
// from and the advertisement carried in its probes.
type routerPath struct {
	addr      *net.UDPAddr
	lastHeard time.Time
	srtt      time.Duration // advertised by the client's probes
	interval  time.Duration // client's probing cadence (staleness unit)
	state     PathState     // advertised
}

// routerSession is one logical client across its subflows.
type routerSession struct {
	id        uint64
	canon     *net.UDPAddr
	paths     map[uint8]*routerPath
	rx        *fecReassembler
	tx        *fecGroups
	lastHeard time.Time
}

// PathRouter demultiplexes path frames arriving on one socket into
// per-session state and routes downlink frames back onto the best
// client subflow. It implements PacketConn over an inner PacketConn.
type PathRouter struct {
	pc    PacketConn
	cfg   RouterConfig
	clock vclock.Clock

	mu       sync.Mutex
	sessions map[uint64]*routerSession
	byCanon  map[netip.AddrPort]*routerSession // keyed by PeerKey(canon)
	recv     func(pkt []byte, from *net.UDPAddr, backlog int)
	closed   bool

	flushTimer vclock.Timer
	flushFn    func()

	fecRepaired   int64 // accumulated from evicted sessions
	fecUnrepaired int64
}

var _ PacketConn = (*PathRouter)(nil)

// NewPathRouter wraps a listening transport with multipath routing.
func NewPathRouter(pc PacketConn, cfg RouterConfig) *PathRouter {
	r := &PathRouter{
		pc:       pc,
		cfg:      cfg,
		clock:    vclock.OrSystem(cfg.Clock),
		sessions: make(map[uint64]*routerSession),
		byCanon:  make(map[netip.AddrPort]*routerSession),
	}
	r.flushFn = r.flushFire
	return r
}

// canonicalAddr derives the stable per-session peer address the server
// Conn keys on: a ULA-style IPv6 address carrying the session id, so two
// sessions can never collide and the address never routes anywhere real.
func canonicalAddr(session uint64) *net.UDPAddr {
	ip := make(net.IP, net.IPv6len)
	ip[0], ip[1] = 0xfd, 0x6d // fd6d::/16 ("m" for multipath), ULA range
	binary.BigEndian.PutUint64(ip[8:], session)
	return &net.UDPAddr{IP: ip, Port: 9}
}

// Start installs the upward delivery callback, arms the downlink FEC
// flush chain, and starts the inner transport.
func (r *PathRouter) Start(recv func(pkt []byte, from *net.UDPAddr, backlog int)) {
	r.mu.Lock()
	r.recv = recv
	if r.cfg.FEC.K > 0 {
		r.flushTimer = r.clock.AfterFunc(fecFlushAfter, r.flushFn)
	}
	r.mu.Unlock()
	r.pc.Start(r.handle)
}

// LocalAddr delegates to the inner transport.
func (r *PathRouter) LocalAddr() net.Addr { return r.pc.LocalAddr() }

// Close stops the flush chain, finalizes FEC accounting, and closes the
// inner transport.
func (r *PathRouter) Close() error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		if r.flushTimer != nil {
			r.flushTimer.Stop()
			r.flushTimer = nil
		}
		for _, s := range r.sessions {
			s.rx.drain()
			r.fecRepaired += s.rx.Repaired
			r.fecUnrepaired += s.rx.Unrepaired
		}
		r.sessions = make(map[uint64]*routerSession)
		r.byCanon = make(map[netip.AddrPort]*routerSession)
	}
	r.mu.Unlock()
	return r.pc.Close()
}

// session returns (creating if needed) the state for one session id,
// evicting the longest-silent session past the bound. Caller holds mu.
func (r *PathRouter) sessionLocked(id uint64) *routerSession {
	s := r.sessions[id]
	if s != nil {
		return s
	}
	if len(r.sessions) >= maxRouterSessions {
		var oldest *routerSession
		for _, cand := range r.sessions {
			if oldest == nil || cand.lastHeard.Before(oldest.lastHeard) {
				oldest = cand
			}
		}
		if oldest != nil {
			oldest.rx.drain()
			r.fecRepaired += oldest.rx.Repaired
			r.fecUnrepaired += oldest.rx.Unrepaired
			delete(r.sessions, oldest.id)
			delete(r.byCanon, PeerKey(oldest.canon))
		}
	}
	s = &routerSession{
		id:    id,
		canon: canonicalAddr(id),
		paths: make(map[uint8]*routerPath),
		rx:    newFECReassembler(),
	}
	if r.cfg.FEC.K > 0 {
		s.tx, _ = newFECGroups(r.cfg.FEC.K, r.cfg.FEC.M) // geometry validated in config
	}
	r.sessions[id] = s
	r.byCanon[PeerKey(s.canon)] = s
	return s
}

// touchLocked refreshes one path's liveness from an inbound datagram.
func (s *routerSession) touchLocked(pathID uint8, from *net.UDPAddr, now time.Time) *routerPath {
	p := s.paths[pathID]
	if p == nil {
		p = &routerPath{interval: 50 * time.Millisecond}
		s.paths[pathID] = p
	}
	p.addr = from
	p.lastHeard = now
	s.lastHeard = now
	return p
}

// handle demultiplexes one inbound datagram from the shared socket; every
// frame it hands up carries the socket reader's backlog.
func (r *PathRouter) handle(pkt []byte, from *net.UDPAddr, backlog int) {
	if !IsPathFrame(pkt) {
		r.mu.Lock()
		recv, closed := r.recv, r.closed
		r.mu.Unlock()
		if recv != nil && !closed {
			recv(pkt, from, backlog)
		}
		return
	}
	hdr, body, err := DecodePathHeader(pkt)
	if err != nil {
		return
	}
	switch hdr.Kind {
	case PathKindProbe:
		probe, perr := DecodePathProbe(body)
		if perr != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		s := r.sessionLocked(hdr.Session)
		p := s.touchLocked(hdr.PathID, from, r.clock.Now())
		p.srtt = time.Duration(probe.SRTTMicro) * time.Microsecond
		if probe.IntervalMicro > 0 {
			p.interval = time.Duration(probe.IntervalMicro) * time.Microsecond
		}
		p.state = PathState(probe.State)
		r.mu.Unlock()
		ack := append([]byte(nil), pkt...)
		ack[3] = PathKindProbeAck
		r.pc.WriteToUDP(ack, from) //nolint:errcheck // best-effort echo
	case PathKindData:
		group, index, inner, derr := DecodePathData(body)
		if derr != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		s := r.sessionLocked(hdr.Session)
		s.touchLocked(hdr.PathID, from, r.clock.Now())
		recovered := s.rx.onData(group, index, inner)
		canon, recv := s.canon, r.recv
		r.mu.Unlock()
		if recv == nil {
			return
		}
		recv(inner, canon, backlog)
		for _, frame := range recovered {
			recv(frame, canon, backlog)
		}
	case PathKindParity:
		phdr, shard, perr := DecodePathParity(body)
		if perr != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		s := r.sessionLocked(hdr.Session)
		s.touchLocked(hdr.PathID, from, r.clock.Now())
		recovered := s.rx.onParity(phdr, shard)
		canon, recv := s.canon, r.recv
		r.mu.Unlock()
		if recv == nil {
			return
		}
		for _, frame := range recovered {
			recv(frame, canon, backlog)
		}
	case PathKindProbeAck:
		// The router never originates probes; a stray ack is dropped.
	}
}

// pickPathLocked ranks one session's client subflows for a downlink
// frame: live paths (heard within 3 probe intervals and not advertised
// down/probing) win, then advertised state, then advertised SRTT, then
// path id for determinism. Like the client scheduler it never returns
// "no path" while any path was ever heard from.
func (r *PathRouter) pickPathLocked(s *routerSession, now time.Time) *routerPath {
	var best *routerPath
	var bestID uint8
	bestRank := 1 << 30
	for id, p := range s.paths {
		if p.addr == nil {
			continue
		}
		rank := p.state.rank()
		if now.Sub(p.lastHeard) > 3*p.interval {
			rank += 10 // stale: below every fresh path, above nothing at all
		}
		switch {
		case best == nil,
			rank < bestRank,
			rank == bestRank && pathAdLess(p, best, id, bestID):
			best, bestID, bestRank = p, id, rank
		}
	}
	return best
}

// pathAdLess orders equally-ranked paths by advertised SRTT then id.
func pathAdLess(a, b *routerPath, i, j uint8) bool {
	switch {
	case a.srtt == 0 && b.srtt == 0:
		return i < j
	case a.srtt == 0:
		return false
	case b.srtt == 0:
		return true
	case a.srtt != b.srtt:
		return a.srtt < b.srtt
	}
	return i < j
}

// WriteToUDP routes a downlink frame. Canonical session addresses are
// rewritten onto the best client subflow (encapsulated, optionally FEC
// grouped); anything else is a legacy peer and passes through.
func (r *PathRouter) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, net.ErrClosed
	}
	s := r.byCanon[PeerKey(addr)]
	if s == nil {
		r.mu.Unlock()
		return r.pc.WriteToUDP(b, addr)
	}
	p := r.pickPathLocked(s, r.clock.Now())
	if p == nil {
		// No subflow ever heard from: nothing to route onto yet.
		r.mu.Unlock()
		return len(b), nil
	}
	pathID := uint8(0)
	for id, cand := range s.paths {
		if cand == p {
			pathID = id
			break
		}
	}
	var group uint32
	var index uint8
	var parityWrites []pathWrite
	fecEligible := false
	if s.tx != nil {
		if ih, _, err := DecodeFrame(b); err == nil && ih.Type == TypeData {
			fecEligible = true
		}
	}
	if fecEligible {
		var parity []parityOut
		group, index, parity = s.tx.place(int(pathID), b)
		if len(parity) > 0 {
			parityWrites = r.encodeParityLocked(s, int(pathID), parity)
		}
	}
	frame := AppendPathData(make([]byte, 0, PathDataOver+len(b)), s.id, pathID, group, index, b)
	dst := p.addr
	r.mu.Unlock()

	if _, err := r.pc.WriteToUDP(frame, dst); err != nil {
		return 0, err
	}
	for _, w := range parityWrites {
		r.pc.WriteToUDP(w.frame, w.addr) //nolint:errcheck // parity is best-effort
	}
	return len(b), nil
}

// encodeParityLocked encapsulates downlink repair shards onto a client
// subflow other than the one carrying the data, when one is live.
func (r *PathRouter) encodeParityLocked(s *routerSession, dataPath int, parity []parityOut) []pathWrite {
	var alt *routerPath
	var altID uint8
	now := r.clock.Now()
	for id, p := range s.paths {
		if int(id) == dataPath || p.addr == nil || now.Sub(p.lastHeard) > 3*p.interval {
			continue
		}
		if alt == nil || pathAdLess(p, alt, id, altID) {
			alt, altID = p, id
		}
	}
	if alt == nil { // fall back to the data path itself
		if p := s.paths[uint8(dataPath)]; p != nil && p.addr != nil {
			alt, altID = p, uint8(dataPath)
		} else {
			return nil
		}
	}
	out := make([]pathWrite, 0, len(parity))
	for _, po := range parity {
		frame := AppendPathParity(make([]byte, 0, PathPrefixLen+pathParityOver+len(po.shard)),
			s.id, altID, po.hdr, po.shard)
		out = append(out, pathWrite{addr: alt.addr, frame: frame})
	}
	return out
}

// flushFire ships parity for downlink FEC groups that waited fecFlushAfter,
// then re-arms.
func (r *PathRouter) flushFire() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	var writes []pathWrite
	for _, s := range r.sessions {
		if s.tx == nil {
			continue
		}
		if parity := s.tx.flush(); len(parity) > 0 {
			writes = append(writes, r.encodeParityLocked(s, -1, parity)...)
		}
	}
	r.flushTimer = vclock.Rearm(r.clock, r.flushTimer, fecFlushAfter, r.flushFn)
	r.mu.Unlock()
	for _, w := range writes {
		r.pc.WriteToUDP(w.frame, w.addr) //nolint:errcheck // parity is best-effort
	}
}

// RouterStats is a snapshot of the router's counters. FEC counters sum
// live and already-evicted sessions.
type RouterStats struct {
	FECRepaired   int64
	FECUnrepaired int64
}

// Stats snapshots the router.
func (r *PathRouter) Stats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := RouterStats{FECRepaired: r.fecRepaired, FECUnrepaired: r.fecUnrepaired}
	for _, s := range r.sessions {
		out.FECRepaired += s.rx.Repaired
		out.FECUnrepaired += s.rx.Unrepaired
	}
	return out
}
