package wire

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/vclock"
)

// ErrClosed is returned by operations on a closed Conn.
var ErrClosed = errors.New("wire: connection closed")

// StreamSpec declares one substream of a connection. Class/priority
// semantics are identical to package core.
type StreamSpec struct {
	ID       uint16
	Class    core.Class
	Priority core.Priority
	Rate     float64 // desired bits/s
	Deadline time.Duration
	// OnAllocate receives QoS feedback (allocated bits/s).
	OnAllocate func(rate float64)
}

// Message is one received application datagram.
type Message struct {
	Stream uint16
	// Payload is lent, valid only until OnMessage returns (Config.OnMessage).
	Payload []byte
	// Conn is the connection that delivered the message (useful behind a
	// Mux, where one handler serves many peers and answers on the
	// connection the request came in on).
	Conn *Conn
	// TraceID/SpanID carry the sender's trace context when the frame was
	// traced (flagTraced set); both are zero for untraced frames. SpanID
	// names the sender's span — the parent of any span the receiver starts.
	TraceID uint64
	SpanID  uint64
	// Backlog is how many datagrams the reader that delivered this one
	// already holds behind it — the rest of its recvmmsg batch, or a demux
	// shard's queue. It is 0 when the datagram was read alone and on every
	// transport that reads one datagram at a time (the simulator's): a
	// receiver that sees it above 0 knows its CPU, not the network, is what
	// the next request waits for.
	Backlog int
}

// State is the liveness of a connection's peer as judged by keepalive.
type State int

// Connection states.
const (
	// StateActive: frames (or heartbeat replies) are arriving.
	StateActive State = iota
	// StateDead: keepaliveMiss probe intervals elapsed with nothing heard.
	StateDead
	// StateClosed: Close was called locally.
	StateClosed
)

// String renders the state for diagnostics.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateDead:
		return "dead"
	case StateClosed:
		return "closed"
	}
	return "?"
}

// Config configures a Conn.
type Config struct {
	Streams     []StreamSpec
	StartBudget float64 // bits/s, default 1 Mb/s
	RetxLimit   int     // default 3
	// OnMessage is invoked for every newly received data frame (duplicates
	// are filtered), for every conn — Dial, Listen or Mux, socket or
	// simulated — on the goroutine that read the datagram: the socket's
	// reader (a demux shard's drain on the hashing fallback) or the
	// simulation's event loop. It must not block, since that goroutine
	// serves every peer of the transport; it may close its own conn, and it
	// may do short work of its own there — answer on m.Conn, say — when
	// m.Backlog says the reader is busy anyway. m.Payload is a loan of the
	// transport's receive buffer, valid until OnMessage returns: copy what
	// must outlive the call.
	OnMessage func(Message)
	// Key, when set (16/24/32 bytes), seals every payload with AES-GCM and
	// authenticates headers (Section VI-G). Both endpoints must share it.
	Key []byte
	// Keepalive, when > 0, sends a heartbeat ping every interval and
	// declares the peer dead after keepaliveMiss (3) unanswered intervals;
	// a dialed conn re-binds then, and every keepaliveMiss intervals after
	// until the peer is heard (DialWith). Peers answer pings automatically
	// whether or not they enable keepalive themselves.
	Keepalive time.Duration
	// OnStateChange observes liveness transitions (Active↔Dead, each once
	// per outage however often the conn re-binds, and Closed on local
	// close). It is called without internal locks held; it must not call
	// back into blocking Conn methods from the same goroutine it wants to
	// keep serviced.
	OnStateChange func(State)
	// Clock supplies time and timer scheduling for every protocol deadline
	// (pacing gaps, the retransmit sweep, keepalive, acks). Nil means the system
	// clock; internal/marsim injects a virtual clock so the identical
	// protocol code runs on deterministic simulated time.
	Clock vclock.Clock
	// Recorder, when set, receives flight-recorder events from the
	// datapath: frame sends, retransmits, acks and loss verdicts. Nil (the
	// default) costs one pointer check per event site. Give it the same
	// Clock as the connection so its timeline lines up with the protocol.
	Recorder *obs.FlightRecorder
}

// Conn is an ARTP endpoint over a datagram transport; both sides may
// declare sending streams and receive the peer's. A Conn drives a connCore,
// its protocol state: one mutex around it, one reset-in-place timer on the
// injected clock (onDeadline), every write and callback with the mutex
// free. Frames leave on the goroutine that made them sendable (drain) and
// arrive on the one that read them (handleDatagram): a Conn spawns no
// goroutines, and the steady-state send path allocates nothing.
type Conn struct {
	pc    PacketConn
	pcs   []PacketConn // the transports it owns, one per path (pcs[0] is pc); none behind a Mux
	clock vclock.Clock
	cfg   Config

	onPathState func(path string, st PathState) // a multipath client's (PathOptions)

	// open, a dialed conn's, opens the fresh transport a silence verdict
	// re-binds it to (rebind); nil on every other conn.
	open func() (PacketConn, *net.UDPAddr, error)

	mu   sync.Mutex
	core connCore
	peer *net.UDPAddr

	// The alarm (guarded by mu) is armed for alarmAt and re-armed in place
	// only for an earlier deadline (unlock): a cleared deadline leaves it be,
	// and a fire that finds nothing due re-arms for the next one.
	alarm   vclock.Timer
	alarmFn func()
	alarmAt vclock.Deadline

	sentFrames atomic.Int64 // data frames the transport took

	// Behind a Mux datagrams arrive through its route, writes go through
	// its transport, which Close leaves open (pcs is empty), and onClose
	// drops the conn from its table.
	onClose func()
}

// Dial connects to a server from a fresh UDP socket, and re-binds to
// another at each silence verdict (DialWith).
func Dial(server string, cfg Config) (*Conn, error) {
	return DialWith(func() (PacketConn, *net.UDPAddr, error) {
		raddr, err := net.ResolveUDPAddr("udp", server)
		if err != nil {
			return nil, nil, fmt.Errorf("wire: resolve %q: %w", server, err)
		}
		sock, err := net.ListenUDP("udp", nil)
		if err != nil {
			return nil, nil, fmt.Errorf("wire: listen: %w", err)
		}
		return newUDPPacketConn(sock), raddr, nil
	}, cfg)
}

// DialWith connects over the transport open returns, and keeps open: with
// cfg.Keepalive set, every silence verdict (keepaliveMiss intervals with
// nothing heard) opens a fresh transport through it and re-binds the conn
// in place, so the client survives a dead socket or a walk out of coverage
// with its streams and sequence numbers. The server meets the fresh
// transport as a new peer, as a Mux does, so the queued and unacked frames
// are not re-sent (connCore.rebind): delivery across a re-bind is at most
// once. A Listen conn answers only the first peer it heard. open must
// return a fresh transport per call, which the conn owns.
func DialWith(open func() (PacketConn, *net.UDPAddr, error), cfg Config) (*Conn, error) {
	pc, peer, err := open()
	if err != nil {
		return nil, err
	}
	return newConn(pc, peer, cfg, open)
}

// DialVia connects to peer over a caller-supplied transport (e.g. a
// simulated network endpoint from internal/marsim). The Conn owns the
// transport and closes it on Close.
func DialVia(pc PacketConn, peer *net.UDPAddr, cfg Config) (*Conn, error) {
	return newConn(pc, peer, cfg, nil)
}

// Listen binds a server endpoint; the peer address is learned from the
// first arriving frame.
func Listen(addr string, cfg Config) (*Conn, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %q: %w", addr, err)
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	return newConn(newUDPPacketConn(sock), nil, cfg, nil)
}

// ListenVia is Listen over a caller-supplied transport: the peer address is
// learned from the first arriving frame.
func ListenVia(pc PacketConn, cfg Config) (*Conn, error) {
	return newConn(pc, nil, cfg, nil)
}

// ConnDialer opens a client's conn from its Config: DialWith over a fresh
// transport, or DialPaths (rpc.ClientConfig.Dialer).
type ConnDialer func(cfg Config) (*Conn, error)

// Session is the handle rpc.Client.Session returns: the conn itself,
// which outlives its sockets (DialWith), under another name.
type Session Conn

// Conn is the session's conn, the same one for the session's life.
func (s *Session) Conn() *Conn { return (*Conn)(s) }

// PathConf names one access link of a multipath conn and its transport,
// which the conn owns and closes on Close.
type PathConf struct {
	Name string
	PC   PacketConn
}

// PathFEC configures cross-path parity: every K data frames sent on one
// path produce M Reed–Solomon repair shards carried on another; K+M <= 16.
// K=0 disables FEC.
type PathFEC struct {
	K, M int
}

// PathOptions tunes a multipath conn.
type PathOptions struct {
	// Session links the paths on the wire: the server's Mux keys the conn
	// on it. Must be nonzero and unique among the server's clients.
	Session uint64
	// FEC enables cross-path parity groups; the server answers with the
	// same geometry.
	FEC PathFEC
	// Stripe spreads bulk bands across live paths by delivery-rate weight.
	// Off, every frame follows the interactive path choice.
	Stripe bool
	// OnPathState observes per-path transitions (called without internal
	// locks held).
	OnPathState func(path string, st PathState)
}

// DialPaths connects to peer over several access links at once (Section
// VI-D): one conn, one sequence space, whose core chooses the path of every
// frame (pathtable.go). Any Listen, ListenVia or Mux server accepts it on its
// one socket. The conn owns the transports and closes them on Close.
func DialPaths(paths []PathConf, peer *net.UDPAddr, cfg Config, opts PathOptions) (*Conn, error) {
	pcs := make([]PacketConn, len(paths))
	for i, p := range paths {
		pcs[i] = p.PC
	}
	t, err := newClientPaths(paths, opts)
	var c *Conn
	if err == nil {
		c, err = newConnCommon(pcs[0], peer, cfg)
	}
	if err != nil {
		for _, pc := range pcs {
			pc.Close()
		}
		return nil, err
	}
	c.core.paths, c.core.rtt = t, &c.core.pathRTT
	c.pcs, c.onPathState = pcs, opts.OnPathState
	c.start()
	return c, nil
}

func newConn(pc PacketConn, peer *net.UDPAddr, cfg Config, open func() (PacketConn, *net.UDPAddr, error)) (*Conn, error) {
	c, err := newConnCommon(pc, peer, cfg)
	if err != nil {
		pc.Close()
		return nil, err
	}
	c.pcs, c.open = []PacketConn{pc}, open
	c.start()
	return c, nil
}

// newConnCommon builds the connection state without starting delivery or
// timers.
func newConnCommon(pc PacketConn, peer *net.UDPAddr, cfg Config) (*Conn, error) {
	clock := vclock.OrSystem(cfg.Clock)
	c := &Conn{pc: pc, clock: clock, cfg: cfg, peer: peer}
	seq, _ := clock.(vclock.Sequencer)
	if err := c.core.init(cfg, clock.Now(), vclock.Granularity(clock), seq); err != nil {
		return nil, err
	}
	c.alarmFn = c.onDeadline
	return c, nil
}

// start begins inbound delivery on every transport and sets the first
// keepalive and probe deadlines.
func (c *Conn) start() {
	for _, pc := range c.pcs {
		pc.Start(c.handleDatagram)
	}
	if c.cfg.Keepalive > 0 || c.core.paths != nil {
		c.mu.Lock()
		now := c.clock.Now()
		c.core.start(now)
		c.unlock(now)
	}
}

// unlock ends a critical section the core served at now, re-arming the
// alarm for a deadline set earlier than alarmAt (which names a fire until its
// last step).
func (c *Conn) unlock(now time.Time) {
	if next := c.core.takeSoonest(); !c.core.closed() && next.Before(c.alarmAt) {
		c.alarmAt = next
		if c.alarm == nil { // the first arm, in the section that took the stamp: a fresh timer takes its place
			c.alarm = c.clock.AfterFunc(next.At.Sub(now), c.alarmFn)
		} else {
			c.alarm = vclock.RearmAt(c.clock, c.alarm, next, now, c.alarmFn)
		}
	}
	c.mu.Unlock()
}

// unlockAndDrain is unlock for the section that ends an event: if the event
// came to owe the transmitter role, this goroutine plays it.
func (c *Conn) unlockAndDrain(now time.Time) {
	owed := c.core.takeDrain()
	c.unlock(now)
	if owed {
		c.drain(now)
	}
}

// drain is the transmit loop of the goroutine that made frames sendable (a
// Send, a reader's loss verdict, the alarm): one frame per round and write,
// while one is due, and after it the parity a frame that filled its FEC
// group owed. The role stays taken across each write (paceArmed), so a
// frame queued meanwhile, by another goroutine or an inline re-entry, is
// left to this loop.
func (c *Conn) drain(now time.Time) {
	fb := getFrameBuf()
	for again := false; ; again = true {
		frame, to, at, ok, owed := c.transmit(fb, now, again)
		if !ok {
			break
		}
		now = at
		if c.write(frame, to) {
			c.sentFrames.Add(1)
		}
		if owed {
			c.writeControl()
		}
	}
	putFrameBuf(fb)
}

// transmit is one round of the drain: the frame due at now — the clock is
// read again for a queued frame after the first round — encoded into fb,
// and whether control datagrams are owed.
func (c *Conn) transmit(fb *[]byte, now time.Time, again bool) ([]byte, route, time.Time, bool, bool) {
	c.mu.Lock()
	if again && !c.core.emptyBands() {
		now = c.clock.Now()
	}
	frame, path, ok := c.core.poll(now, (*fb)[:0])
	to := c.routeLocked(path)
	owed := len(c.core.ctl) > 0
	c.unlock(now)
	return frame, to, now, ok, owed
}

// route is where a datagram goes: a transport and an address.
type route struct {
	pc   PacketConn
	addr *net.UDPAddr
}

// routeLocked is the route of a datagram on path: a multipath client's
// transport for it, or a server's return address for it, else the conn's
// own.
func (c *Conn) routeLocked(path int) route {
	r := route{c.pc, c.peer}
	if path < len(c.pcs) {
		r.pc = c.pcs[path]
	}
	if p := c.core.paths; p != nil && path < len(p.paths) && p.paths[path].addr != nil {
		r.addr = p.paths[path].addr
	}
	return r
}

// writeControl writes the control datagrams the core owes, each polled in a
// section of its own, and reports whether the conn is still open: a Close
// from inside a write stops the rest, and the delivery that would follow.
func (c *Conn) writeControl() bool {
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	for {
		frame, to, ok, open := c.nextControl(fb)
		if !ok || !open {
			return open
		}
		c.write(frame, to)
	}
}

// nextControl polls the next control datagram owed into fb.
func (c *Conn) nextControl(fb *[]byte) (frame []byte, to route, ok, open bool) {
	c.mu.Lock()
	path := 0
	if open = !c.core.closed(); open {
		frame, path, ok = c.core.pollControl((*fb)[:0])
	}
	to = c.routeLocked(path)
	c.mu.Unlock()
	return frame, to, ok, open
}

// write hands a datagram to its transport, with mu free (writes may be
// concurrent), and reports whether it took it; without a peer it is lost.
func (c *Conn) write(frame []byte, to route) bool {
	if to.addr == nil {
		return false
	}
	_, err := to.pc.WriteToUDP(frame, to.addr)
	return err == nil
}

// onDeadline is the alarm's callback. It reads the clock once and services
// what is due — every deadline up to a granule ahead and not placed after
// this fire's — in a fixed order, each step a section whose writes follow
// it: the keepalive and the paths' probes and parity (state callbacks,
// then a re-bind or the ping, then the rest), the sweep and the pacer, then
// the acks no frame carried. The last step re-arms the alarm.
func (c *Conn) onDeadline() {
	c.mu.Lock()
	now := c.clock.Now()
	due := vclock.Deadline{At: now.Add(c.core.grain), Stamp: c.alarmAt.Stamp}
	probed, silent, dead := c.core.probe(now, due)
	c.core.probePaths(now, due)
	if !probed && len(c.core.ctl) == 0 { // nothing to write or call back before the sweep: one section serves both
		c.core.onDeadline(now, due)
		c.unlockAndDrain(now)
	} else {
		fb := getFrameBuf()
		ping, path, ok := c.core.pollControl((*fb)[:0])
		to := c.routeLocked(path)
		notes := c.core.paths.takeNotes()
		c.unlock(now)
		if dead && c.cfg.OnStateChange != nil {
			c.cfg.OnStateChange(StateDead)
		}
		rebound := silent && c.open != nil && c.rebind(now, dead)
		c.notify(notes)
		if ok && !rebound {
			c.write(ping, to) // best-effort probe; a re-bound conn's next leaves a keepalive later
		}
		putFrameBuf(fb)
		c.writeControl() // the rest of the round: more probes, parity
		c.sweep(now, due)
	}
	c.flushDue(now, due)
}

// rebind answers a silence verdict at now: it opens a fresh transport,
// swaps it in for the silent one, which it closes, and restarts the core's
// path state (connCore.rebind); the re-bind at the dead verdict freezes
// the flight recorder. It reports false when open fails or the conn closed
// meanwhile: the next verdict tries again.
func (c *Conn) rebind(now time.Time, dead bool) bool {
	pc, peer, err := c.open()
	if err != nil {
		return false
	}
	pc.Start(c.handleDatagram)
	c.mu.Lock()
	if c.core.closed() {
		c.mu.Unlock()
		pc.Close()
		return false
	}
	old := c.pc
	c.pc, c.pcs[0], c.peer = pc, pc, peer
	c.core.rebind(now)
	c.unlockAndDrain(now)
	old.Close()
	if dead {
		c.cfg.Recorder.Freeze("session-reset")
	}
	return true
}

// notify calls OnPathState for each transition, with mu free, freezing the
// flight recorder first when a path died: it holds the sends, losses and
// state flips that led into the failover.
func (c *Conn) notify(notes []pathNote) {
	for _, n := range notes {
		if n.state == PathDown {
			c.cfg.Recorder.Freeze("path-down")
			break
		}
	}
	if c.onPathState != nil {
		for _, n := range notes {
			c.onPathState(n.name, n.state)
		}
	}
}

// sweep is the alarm's middle step: the sweep, the pacer and their drain.
func (c *Conn) sweep(now time.Time, due vclock.Deadline) {
	c.mu.Lock()
	c.core.onDeadline(now, due)
	c.unlockAndDrain(now)
}

// flushDue is the alarm's last step: the acks, and the alarm re-armed.
func (c *Conn) flushDue(now time.Time, due vclock.Deadline) {
	var fb *[]byte
	var ack []byte
	path := 0
	c.mu.Lock()
	ok := c.core.ackDue(now, due)
	if ok {
		fb = getFrameBuf()
		ack, path, ok = c.core.pollControl((*fb)[:0])
	}
	to := c.routeLocked(path)
	c.alarmAt = vclock.Deadline{}
	c.core.rearm()
	c.unlock(now)
	if fb != nil {
		if ok {
			c.write(ack, to) // best-effort ack
		}
		putFrameBuf(fb)
	}
}

// LocalAddr returns the bound UDP address (the latest transport's).
func (c *Conn) LocalAddr() *net.UDPAddr {
	c.mu.Lock()
	pc := c.pc
	c.mu.Unlock()
	addr, _ := pc.LocalAddr().(*net.UDPAddr)
	return addr
}

// Budget reports the controller's current sending budget in bits/s.
func (c *Conn) Budget() float64 { return read(c, func(k *connCore) float64 { return k.ctrl.Budget() }) }

// SRTT reports the smoothed round trip (zero before the first acknowledged
// exchange) of the raw samples, over several paths too, not the rebased ones
// the controller reacts to. Deadline-aware servers charge half of it one way.
func (c *Conn) SRTT() time.Duration {
	return read(c, func(k *connCore) time.Duration { return k.rtt.Smoothed() })
}

// LossRate reports the smoothed per-transmission loss rate in [0,1], zero
// before any verdict: with SRTT, what the adaptive degradation ladder reads.
func (c *Conn) LossRate() float64 { return read(c, func(k *connCore) float64 { return k.lossRate }) }

// LostFrameCount reports how many transmissions were declared lost.
func (c *Conn) LostFrameCount() int64 {
	return read(c, func(k *connCore) int64 { return k.lostFrames })
}

// read is f of the core, under mu.
func read[T any](c *Conn, f func(*connCore) T) T {
	c.mu.Lock()
	defer c.mu.Unlock()
	return f(&c.core)
}

// Close stops the alarm, clears every deadline and closes the transport.
func (c *Conn) Close() error {
	c.mu.Lock()
	if !c.core.close() {
		c.mu.Unlock()
		return nil
	}
	if c.alarm != nil {
		c.alarm.Stop()
	}
	c.alarmAt = vclock.Deadline{}
	c.mu.Unlock()
	if c.cfg.OnStateChange != nil {
		c.cfg.OnStateChange(StateClosed)
	}
	if c.onClose != nil {
		c.onClose()
	}
	var first error
	for _, pc := range c.pcs {
		if err := pc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Send submits one application datagram on a stream. It reports whether
// the datagram was admitted (false = shed by graceful degradation) and
// errors only on misuse or closed connections.
func (c *Conn) Send(streamID uint16, payload []byte) (bool, error) {
	return c.SendTraced(streamID, payload, 0, 0)
}

// SendTraced is Send with trace context: a nonzero traceID puts the ids in
// the frame's header (and its retransmissions'), so the receiver can stitch
// its span onto the sender's trace. SendTraced(id, p, 0, 0) is Send(id, p).
func (c *Conn) SendTraced(streamID uint16, payload []byte, traceID, spanID uint64) (bool, error) {
	if len(payload) > maxPlain(c.core.sealer != nil) {
		return false, fmt.Errorf("%w (%d bytes)", ErrOversize, len(payload))
	}
	c.mu.Lock()
	// One clock reading serves a frame that leaves at once: admission, the
	// pacing decision, lastSent and the SendMicro stamp.
	now := c.clock.Now()
	ok, err := c.core.send(now, streamID, payload, traceID, spanID)
	c.unlockAndDrain(now)
	return ok, err
}

// handleDatagram parses and processes one inbound datagram. It is the
// transport's delivery callback, directly or through a Mux's route: on a
// real socket it runs on the reader goroutine (or a demux shard's drain),
// on a simulated transport on the event loop. backlog is the reader's (see
// Message.Backlog). The frames cross-path FEC regenerates from it follow it,
// each handled the same way.
func (c *Conn) handleDatagram(dgram []byte, raddr *net.UDPAddr, backlog int) {
	hdr, payload, derr := DecodeFrame(dgram)
	if derr != nil {
		return // ignore malformed datagrams
	}
	if sl := c.core.sealer; sl != nil {
		// In place: the transport loans the buffer for this call, and
		// OnMessage is lent the plaintext for its own call alone.
		if payload, derr = sl.openInPlace(hdr, payload); derr != nil {
			c.mu.Lock()
			c.core.authFailures++
			c.mu.Unlock()
			return
		}
	}
	if !c.handleFrame(&hdr, payload, len(dgram), raddr, backlog) || hdr.Session == 0 || hdr.Group == 0 && hdr.Type != TypeParity {
		return
	}
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	for {
		c.mu.Lock()
		frame, _, ok := popDatagram(&c.core.paths.repaired, &c.core.paths.repairedHead, (*fb)[:0])
		c.mu.Unlock()
		if !ok {
			return
		}
		// Built from authenticated frames (pathfec.go): no second open.
		if hdr, payload, derr = DecodeFrame(frame); derr != nil || !c.handleFrame(&hdr, payload, len(frame), raddr, backlog) {
			return
		}
	}
}

// handleFrame processes one authenticated frame, and reports whether the
// conn is still open. What follows leaves in a fixed order: the pure ack,
// the NACKs, the delivery (whose answer may be sent and drained inline), the
// retransmissions the verdicts queued, the state callbacks.
func (c *Conn) handleFrame(hdr *Header, payload []byte, wireLen int, raddr *net.UDPAddr, backlog int) bool {
	c.mu.Lock()
	if c.core.closed() {
		c.mu.Unlock()
		return false
	}
	if c.peer == nil {
		c.peer = raddr
	}
	now := c.clock.Now()
	var m Message
	var deliver, revived bool
	if hdr.Session == 0 || c.core.onPath(now, hdr, payload, raddr) {
		m, deliver, revived = c.core.onDatagram(now, hdr, payload, wireLen, backlog)
	}
	deliver = deliver && c.cfg.OnMessage != nil
	var notes []pathNote
	if hdr.Session != 0 { // a path transition is filed by onPath alone
		notes = c.core.paths.takeNotes()
	}
	control := len(c.core.ctl) > 0
	if !control && !deliver {
		c.unlockAndDrain(now) // retransmissions a loss verdict queued leave from here
	} else {
		c.unlock(now)
		if control && !c.writeControl() {
			return false // closed from inside a write: nothing is delivered
		}
		if deliver {
			m.Conn = c
			c.cfg.OnMessage(m)
		}
		if !c.settle(now) {
			return false
		}
	}
	if revived && c.cfg.OnStateChange != nil {
		c.cfg.OnStateChange(StateActive)
	}
	c.notify(notes)
	return true
}

// settle ends a datagram that wrote or delivered: it drains what the
// verdicts owed, if no Send did already, and reports the conn still open.
func (c *Conn) settle(now time.Time) (open bool) {
	c.mu.Lock()
	open = !c.core.closed()
	c.unlockAndDrain(now)
	return open
}

// StreamStats is a snapshot of one stream's counters.
type StreamStats struct {
	Sent, Shed, Retx, Received, Duplicates int64
	Allocated                              float64
}

// AuthFailureCount reports how many sealed frames failed authentication
// (corrupted or forged datagrams dropped before any protocol processing).
func (c *Conn) AuthFailureCount() int64 {
	return read(c, func(k *connCore) int64 { return k.authFailures })
}

// ReconnectCount reports how many times the conn re-bound to a fresh
// transport (DialWith).
func (c *Conn) ReconnectCount() int64 {
	return read(c, func(k *connCore) int64 { return k.reconnects })
}

// Stats returns a snapshot for a stream.
func (c *Conn) Stats(streamID uint16) StreamStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.core.stream(streamID)
	if st == nil {
		return StreamStats{}
	}
	return st.snapshot()
}

// PublishMetrics registers the connection's counters with an
// observability registry as live read-through functions: every scrape
// sees exactly what Stats would return at that instant. Per-stream
// counters get a stream="<id>" label on top of the caller's labels.
// Streams learned from the peer after this call are not covered;
// call again to pick them up.
func (c *Conn) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.CounterFunc("mar_wire_frames_sent_total", c.sentFrames.Load, labels...)
	reg.CounterFunc("mar_wire_acks_sent_total", func() int64 { return read(c, func(k *connCore) int64 { return k.acksSent }) }, labels...)
	reg.CounterFunc("mar_wire_acks_piggybacked_total", func() int64 { return read(c, func(k *connCore) int64 { return k.acksPiggybacked }) }, labels...)
	reg.CounterFunc("mar_wire_auth_failures_total", c.AuthFailureCount, labels...)
	reg.CounterFunc("mar_wire_reconnects_total", c.ReconnectCount, labels...)
	reg.GaugeFunc("mar_wire_srtt_seconds", func() float64 { return c.SRTT().Seconds() }, labels...)
	reg.GaugeFunc("mar_wire_loss_rate", c.LossRate, labels...)
	reg.CounterFunc("mar_wire_frames_lost_total", c.LostFrameCount, labels...)
	reg.GaugeFunc("mar_wire_budget_bps", c.Budget, labels...)

	c.mu.Lock()
	ids := make([]uint16, 0, len(c.core.streams))
	for _, st := range c.core.streams {
		ids = append(ids, st.spec.ID)
	}
	var paths []string
	if p := c.core.paths; p != nil {
		for i := range p.paths {
			paths = append(paths, p.paths[i].name)
		}
	}
	c.mu.Unlock()
	if paths != nil {
		c.publishPaths(reg, paths, labels)
	}
	for _, id := range ids {
		ls := append(append([]obs.Label(nil), labels...), obs.L("stream", strconv.Itoa(int(id))))
		reg.CounterFunc("mar_wire_stream_sent_total", func() int64 { return c.Stats(id).Sent }, ls...)
		reg.CounterFunc("mar_wire_stream_shed_total", func() int64 { return c.Stats(id).Shed }, ls...)
		reg.CounterFunc("mar_wire_stream_retx_total", func() int64 { return c.Stats(id).Retx }, ls...)
		reg.CounterFunc("mar_wire_stream_received_total", func() int64 { return c.Stats(id).Received }, ls...)
		reg.CounterFunc("mar_wire_stream_duplicates_total", func() int64 { return c.Stats(id).Duplicates }, ls...)
		reg.GaugeFunc("mar_wire_stream_allocated_bps", func() float64 { return c.Stats(id).Allocated }, ls...)
	}
}

// publishPaths registers a multipath conn's path counters: per path (a
// path="<name>" label, the id where the path has no name) its sent frames
// and bytes, SRTT (as the server's paths advertise it) and state; per conn
// the frames evacuated off dead paths, the parity sent and the FEC holes
// repaired and left unrepaired.
func (c *Conn) publishPaths(reg *obs.Registry, names []string, labels []obs.Label) {
	count := func(f func(*pathTable) int64) func() int64 {
		return func() int64 { return read(c, func(k *connCore) int64 { return f(k.paths) }) }
	}
	for i, name := range names {
		if name == "" {
			name = strconv.Itoa(i)
		}
		ls := append(append([]obs.Label(nil), labels...), obs.L("path", name))
		reg.CounterFunc("mar_wire_path_sent_frames_total", count(func(p *pathTable) int64 { return p.paths[i].sentFrames }), ls...)
		reg.CounterFunc("mar_wire_path_sent_bytes_total", count(func(p *pathTable) int64 { return p.paths[i].sentBytes }), ls...)
		reg.GaugeFunc("mar_wire_path_srtt_seconds", func() float64 {
			return time.Duration(count(func(p *pathTable) int64 { return int64(max(p.paths[i].rtt.Smoothed(), p.paths[i].adSRTT)) })()).Seconds()
		}, ls...)
		reg.GaugeFunc("mar_wire_path_state", func() float64 { return float64(count(func(p *pathTable) int64 { return int64(p.paths[i].state) })()) }, ls...)
	}
	reg.CounterFunc("mar_wire_path_failover_frames_total", count(func(p *pathTable) int64 { return p.failover }), labels...)
	reg.CounterFunc("mar_wire_path_parity_sent_total", count(func(p *pathTable) int64 { return p.paritySent }), labels...)
	reg.CounterFunc("mar_wire_path_fec_repaired_total", count(func(p *pathTable) int64 { return p.rx.repaired }), labels...)
	reg.CounterFunc("mar_wire_path_fec_unrepaired_total", count(func(p *pathTable) int64 { return p.rx.unrepaired }), labels...)
}
