package wire

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
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
	// declares the peer dead after keepaliveMiss (3) unanswered intervals.
	// Peers answer pings automatically whether or not they enable
	// keepalive themselves.
	Keepalive time.Duration
	// OnStateChange observes liveness transitions (Active↔Dead, and Closed
	// on local close). It is called without internal locks held; it must
	// not call back into blocking Conn methods from the same goroutine it
	// wants to keep serviced.
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

// keepaliveMiss is how many silent probe intervals mean the peer is dead.
const keepaliveMiss = 3

// wpending is the bookkeeping record of one reliable frame awaiting
// acknowledgment. Records are pooled: they return to pendingPool when the
// sequence leaves the outstanding map (see pool.go for ownership rules).
type wpending struct {
	payload  []byte
	pbuf     *[]byte // pooled backing buffer of payload
	class    core.Class
	deadline time.Time
	lastSent time.Time
	retx     int
	queued   bool
	// sending marks the window where the transmit loop has popped this frame
	// and is writing it outside the lock; orphaned marks a record removed
	// from the outstanding map during that window, deferring the buffer
	// release to the transmit loop's finalize step.
	sending  bool
	orphaned bool
	// Trace context rides with the pending record so retransmits carry
	// the same ids as the original transmission.
	traceID uint64
	spanID  uint64
}

type wstream struct {
	spec      StreamSpec
	nextSeq   int64
	allocated float64
	tokens    float64
	lastFill  time.Time

	outstanding map[int64]*wpending
	maxAcked    int64

	// recv is the receive side: which of the last recvWindow sequences
	// arrived and which holes were NACKed. runStart is where the run of
	// consecutively received sequences ending at recv.Next()-1 began (or
	// later): a gap resets it, a hole filled just below it moves it back.
	recv     core.SeqWindow
	runStart int64

	// Stats
	sent  int64
	shed  int64
	retx  int64
	recvd int64
	dups  int64
}

type outFrame struct {
	hdr     Header
	payload []byte
	pbuf    *[]byte // pooled backing buffer of payload (nil for none)
}

// frameQueue is a FIFO of queued frames that reuses its backing array:
// pops advance a head index instead of re-slicing, so a steady-state
// enqueue/dequeue cycle allocates nothing once the array has grown to the
// high-water backlog (a plain s=s[1:] queue leaks capacity on every pop
// and re-allocates forever). Pop compacts whenever the dead head region
// outgrows the live half, so even a queue that never fully drains — the
// sustained-backlog regime a saturation sender maintains — is bounded by
// its backlog high-water mark, not by cumulative throughput; the copy is
// amortized O(1) per pop.
type frameQueue struct {
	buf  []outFrame
	head int
}

func (q *frameQueue) empty() bool { return q.head >= len(q.buf) }

func (q *frameQueue) push(f outFrame) { q.buf = append(q.buf, f) }

func (q *frameQueue) pop() outFrame {
	f := q.buf[q.head]
	q.buf[q.head] = outFrame{} // drop buffer refs so the pool owns them alone
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head > len(q.buf)/2:
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:]) // stale tail copies must not pin pooled buffers
		q.buf = q.buf[:n]
		q.head = 0
	}
	return f
}

// recvWindow is how many sequences back a stream remembers (see DESIGN.md
// §3: 2048 frames is seconds of traffic, far beyond any frame still inside
// a 75 ms deadline); a frame older than that is dropped as a duplicate.
const recvWindow = 2048

func newStream(spec StreamSpec, now time.Time) *wstream {
	return &wstream{
		spec:        spec,
		lastFill:    now,
		outstanding: make(map[int64]*wpending),
		maxAcked:    -1,
		recv:        core.NewSeqWindow(recvWindow),
	}
}

// sweepInterval is the retransmit sweep period (tail-loss probe cadence).
const sweepInterval = 50 * time.Millisecond

const (
	maxAckDelay = 25 * time.Millisecond // cap on an ack's wait for a ride, whatever SRTT says
	rejoinLimit = 64                    // how far back a filled hole re-joins the newest run
)

// Conn is an ARTP endpoint over a datagram transport. Both sides of a
// connection are symmetric: each may declare sending streams and receive
// the peer's. Frames are transmitted by whichever goroutine made them
// sendable (see drain) and received on whichever goroutine read the
// datagram (see handleDatagram); the protocol deadlines (pacing gap, sweep,
// keepalive, ack) share one reset-in-place timer on the injected clock (see
// onDeadline), so a Conn spawns no goroutines of its own — and the
// steady-state send path allocates nothing.
type Conn struct {
	pc    PacketConn
	clock vclock.Clock
	grain time.Duration // vclock.Granularity(clock): no pace timer is shorter
	epoch time.Time
	cfg   Config

	mu        sync.Mutex
	peer      *net.UDPAddr
	ctrl      *core.Controller
	streams   []*wstream // sorted by id; the order is fixed at declaration
	bands     [4]frameQueue
	closed    bool
	sealer    *sealer // nil when Config.Key is unset
	state     State
	lastHeard time.Time // last authenticated frame from the peer

	// Deadlines (guarded by mu), each with its place among same-instant timers
	// (vclock.Deadline). paceAt is nextSend while the pacer waits out a gap,
	// sweepAt the next retransmit sweep while anything is outstanding, kaAt the
	// next keepalive probe, ackAt (below) when owed acks leave alone. One
	// timer, alarm, serves them all: it is armed for alarmAt and re-armed in
	// place only for a deadline earlier than that; a cleared deadline leaves it
	// be, and a fire that finds nothing due re-arms for the next one
	// (onDeadline). nextSend is the earliest instant the next frame may be
	// serialized, enforcing the budget gap across idle periods. paceArmed says
	// the queued frames have a transmitter: a drain that is owed or running, or
	// the pacer waiting out a gap. drainOwed tells a critical section's own
	// unlockAndDrain that it is the caller; false whenever mu is free.
	alarm     vclock.Timer
	alarmFn   func()
	alarmAt   vclock.Deadline
	paceAt    vclock.Deadline
	sweepAt   vclock.Deadline
	kaAt      vclock.Deadline
	nextSend  time.Time
	paceArmed bool
	drainOwed bool

	// Acknowledgements owed to the peer (guarded by mu; header.go,
	// "Acknowledgements"): the ranges, the send stamp and arrival time of
	// the newest data frame among them (the echo, and what the hold is
	// measured from), and when the oldest was filed. At ackAt they leave
	// as a pure ack if nothing rode in time; a ride leaves ackAt set.
	owed      [MaxAckRanges]AckRange
	owedN     int
	owedEcho  uint64
	owedAt    time.Time
	owedSince time.Time
	ackAt     vclock.Deadline

	// sendMu serializes the transmit loop's pop→encode→write→finalize
	// cycle and guards the buffers it writes from. Lock order: sendMu
	// before mu, never the reverse.
	sendMu    sync.Mutex
	sendFrame *[]byte              // the encoded frame being written
	sendAcks  [maxAckBlockLen]byte // the block riding the frame being written

	// seqScratch backs the sequence lists built under mu: the gap list on
	// the receive path, the loss candidates of an ack or a sweep.
	seqScratch []int64

	// The peer's sending rate, measured on arrivals (guarded by mu): wire
	// bits of new data frames since arrStart. The first arrival at least
	// core.BaseRTTFloor later closes the window and hands bits ÷ elapsed to
	// the controller — no timer, only the event stream.
	arrStart time.Time
	arrBits  int

	// rtt is the measured estimator everything that times the network
	// reads. On a plain conn it is the controller's own, which is fed the
	// same samples. Over a PathSet (bindConn) it is pathRTT, fed the raw
	// samples, while the controller is fed each rebased onto the path that
	// carried the frame it echoes (PathSet.rebaseRTT). Guarded by mu.
	paths   *PathSet
	rtt     *core.RTT
	pathRTT core.RTT

	// Mux mode: datagrams arrive through the mux's route on the goroutine
	// that read them, writes go through the shared transport, and Close
	// must not close it.
	muxced  bool
	onClose func()

	// Stats (guarded by mu).
	SentFrames      int64
	AcksSent        int64 // pure-ack datagrams written
	AcksPiggybacked int64 // acknowledgement blocks that rode a data frame
	AuthFailures    int64
	LostFrames      int64 // transmissions declared lost (gap, nack or sweep)

	// Smoothed per-transmission loss rate: every delivery confirmation
	// contributes a 0 sample, every loss declaration a 1. This is the
	// measured-loss input the §VI-C FEC sizing rule consumes.
	lossRate  float64
	lossKnown bool
}

// Dial connects to a server and starts the protocol machinery.
func Dial(server string, cfg Config) (*Conn, error) {
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %q: %w", server, err)
	}
	sock, err := net.ListenUDP("udp", nil)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	return newConn(newUDPPacketConn(sock), raddr, cfg)
}

// DialVia connects to peer over a caller-supplied transport (e.g. a
// simulated network endpoint from internal/marsim). The Conn owns the
// transport and closes it on Close.
func DialVia(pc PacketConn, peer *net.UDPAddr, cfg Config) (*Conn, error) {
	return newConn(pc, peer, cfg)
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
	return newConn(newUDPPacketConn(sock), nil, cfg)
}

// ListenVia is Listen over a caller-supplied transport: the peer address is
// learned from the first arriving frame.
func ListenVia(pc PacketConn, cfg Config) (*Conn, error) {
	return newConn(pc, nil, cfg)
}

func newConn(pc PacketConn, peer *net.UDPAddr, cfg Config) (*Conn, error) {
	c, err := newConnCommon(pc, peer, cfg)
	if err != nil {
		pc.Close()
		return nil, err
	}
	c.start()
	return c, nil
}

// newConnCommon applies the Config defaults and builds the connection
// state without starting delivery or timers.
func newConnCommon(pc PacketConn, peer *net.UDPAddr, cfg Config) (*Conn, error) {
	var sl *sealer
	if cfg.Key != nil {
		var err error
		if sl, err = newSealer(cfg.Key); err != nil {
			return nil, err
		}
	}
	if cfg.StartBudget <= 0 {
		cfg.StartBudget = 1e6
	}
	if cfg.RetxLimit <= 0 {
		cfg.RetxLimit = 3
	}
	clock := vclock.OrSystem(cfg.Clock)
	now := clock.Now()
	c := &Conn{
		pc:        pc,
		clock:     clock,
		grain:     vclock.Granularity(clock),
		epoch:     now,
		cfg:       cfg,
		peer:      peer,
		ctrl:      core.NewController(cfg.StartBudget),
		sealer:    sl,
		state:     StateActive,
		lastHeard: now,
		nextSend:  now,
		sendFrame: getFrameBuf(),
	}
	c.rtt = c.ctrl.RTT()
	if ps, ok := pc.(*PathSet); ok {
		// A Conn built directly over a PathSet gets the sub-RTT failover
		// hook: path-down evacuation re-enqueues in-flight frames here.
		ps.bindConn(c)
	}
	c.alarmFn = c.onDeadline
	for _, spec := range cfg.Streams {
		st := newStream(spec, now)
		st.tokens = 4 * 1500 // initial burst credit
		c.addStreamLocked(st)
	}
	c.ctrl.SetOnChange(c.reallocateLocked)
	c.reallocateLocked()
	return c, nil
}

// start begins inbound delivery and sets the first keepalive deadline.
// There is no sweep deadline until a frame is outstanding (sendLocked).
func (c *Conn) start() {
	if !c.muxced {
		c.pc.Start(c.handleDatagram)
	}
	if c.cfg.Keepalive > 0 {
		c.mu.Lock()
		now := c.clock.Now()
		c.setLocked(&c.kaAt, now.Add(c.cfg.Keepalive), now)
		c.mu.Unlock()
	}
}

// streamLocked finds a stream by id (nil when unknown).
func (c *Conn) streamLocked(id uint16) *wstream {
	if i, ok := c.streamIndex(id); ok {
		return c.streams[i]
	}
	return nil
}

func (c *Conn) streamIndex(id uint16) (int, bool) {
	return slices.BinarySearchFunc(c.streams, id, func(st *wstream, id uint16) int {
		return int(st.spec.ID) - int(id)
	})
}

// addStreamLocked files a stream at its place in id order (replacing a
// stream declared twice, as the map this slice replaced did).
func (c *Conn) addStreamLocked(st *wstream) {
	i, ok := c.streamIndex(st.spec.ID)
	if ok {
		c.streams[i] = st
		return
	}
	c.streams = slices.Insert(c.streams, i, st)
}

// setLocked sets *d to at, in the place of a timer armed now; now is the
// caller's clock reading.
func (c *Conn) setLocked(d *vclock.Deadline, at, now time.Time) {
	*d = vclock.NewDeadline(c.clock, at)
	c.armLocked(*d, now)
}

// armLocked re-arms the alarm, in place, when next comes before the
// deadline it is armed for.
func (c *Conn) armLocked(next vclock.Deadline, now time.Time) {
	if c.closed || !next.Before(c.alarmAt) {
		return
	}
	c.alarmAt = next
	if c.alarm == nil { // the first arm, straight from setLocked: a fresh timer takes its stamp's place
		c.alarm = c.clock.AfterFunc(next.At.Sub(now), c.alarmFn)
	} else {
		c.alarm = vclock.RearmAt(c.clock, c.alarm, next, now, c.alarmFn)
	}
}

// onDeadline is the alarm's callback. It reads the clock once and services
// what is due in a fixed order — keepalive, sweep, pacer, ack — so a
// retransmission the sweep queues leaves with the owed acks riding it, then
// re-arms for the earliest deadline left. Until then alarmAt still names
// this fire, so a deadline set meanwhile does not arm the alarm twice.
// Due is every deadline up to a granule ahead (paceDueLocked's rule) and
// not placed after this fire's.
func (c *Conn) onDeadline() {
	c.mu.Lock()
	now := c.clock.Now()
	due := vclock.Deadline{At: now.Add(c.grain), Stamp: c.alarmAt.Stamp}
	if !due.Before(c.kaAt) {
		// Probe the peer every Keepalive interval and flip the connection
		// state when the silence threshold is crossed (Section VI: dead-peer
		// detection is what lets the session layer fail over instead of
		// stalling on a blackholed path); mu is released around the state
		// callback and the ping.
		c.setLocked(&c.kaAt, now.Add(c.cfg.Keepalive), now)
		dead := c.state == StateActive && now.Sub(c.lastHeard) >= keepaliveMiss*c.cfg.Keepalive
		if dead {
			c.state = StateDead
		}
		peer := c.peer
		c.mu.Unlock()
		if dead && c.cfg.OnStateChange != nil {
			c.cfg.OnStateChange(StateDead)
		}
		if peer != nil {
			ping := Header{Type: TypePing, SendMicro: uint64(now.Sub(c.epoch).Microseconds())}
			c.writeFrame(ping, nil, peer) //nolint:errcheck // best-effort probe
		}
		c.mu.Lock()
	}
	if !due.Before(c.sweepAt) {
		// Retransmit reliable tail losses that produce no gap signal, and
		// sweep again only while something is still outstanding. Streams and
		// sequences are visited in sorted order so the retransmission
		// schedule is deterministic; a sweep that finds nothing stale —
		// nearly all of them — sorts and allocates nothing.
		stale := max(2*c.rtt.Smoothed(), 100*time.Millisecond)
		c.sweepAt = vclock.Deadline{}
		for _, st := range c.streams {
			lost := c.seqScratch[:0]
			for seq, pp := range st.outstanding {
				if !pp.queued && !pp.sending && !pp.lastSent.IsZero() && now.Sub(pp.lastSent) >= stale {
					lost = append(lost, seq)
				}
			}
			c.loseLocked(st, lost, now)
			if len(st.outstanding) > 0 && c.sweepAt.At.IsZero() {
				c.setLocked(&c.sweepAt, now.Add(sweepInterval), now)
			}
		}
	}
	if !due.Before(c.paceAt) { // the gap is over
		c.paceAt = vclock.Deadline{}
		c.drainOwed = true
	}
	c.unlockAndDrain(now)
	c.mu.Lock()
	if !due.Before(c.ackAt) {
		// What is owed and old enough leaves as a pure ack; what was filed
		// after a ride emptied the list waits out the rest of its own delay.
		c.ackAt = vclock.Deadline{}
		switch wait := c.ackDelayLocked() - now.Sub(c.owedSince); {
		case c.owedN == 0: // a ride took them
		case wait > 0:
			c.setLocked(&c.ackAt, now.Add(max(wait, c.grain)), now)
		default:
			c.flushAcksLocked(now)
		}
	}
	c.alarmAt = vclock.Deadline{}
	next := c.ackAt
	for _, d := range [...]vclock.Deadline{c.kaAt, c.sweepAt, c.paceAt} {
		if d.Before(next) {
			next = d
		}
	}
	c.armLocked(next, now)
	c.mu.Unlock()
}

// LastActivity reports when the last authenticated frame arrived from the
// peer (connection creation time if none has).
func (c *Conn) LastActivity() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastHeard
}

// encodeFrame serializes (and seals, when a key is configured) one frame
// into dst, which callers draw from the frame pool so the steady-state
// path allocates nothing.
func (c *Conn) encodeFrame(dst []byte, h Header, payload []byte) ([]byte, error) {
	if c.sealer != nil {
		return c.sealer.appendSealedFrame(dst, h, payload)
	}
	return AppendFrame(dst, h, payload)
}

// writeFrame seals (when a key is configured) and transmits one frame to
// the peer through a pooled frame buffer. It takes no locks itself;
// datagram writes are safe to issue concurrently.
func (c *Conn) writeFrame(h Header, payload []byte, peer *net.UDPAddr) error {
	if peer == nil {
		return nil
	}
	fb := getFrameBuf()
	frame, err := c.encodeFrame((*fb)[:0], h, payload)
	if err == nil {
		_, err = c.pc.WriteToUDP(frame, peer)
	}
	putFrameBuf(fb)
	return err
}

// LocalAddr returns the bound UDP address.
func (c *Conn) LocalAddr() *net.UDPAddr {
	addr, _ := c.pc.LocalAddr().(*net.UDPAddr)
	return addr
}

// Budget reports the controller's current sending budget in bits/s.
func (c *Conn) Budget() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctrl.Budget()
}

// SRTT reports the smoothed round-trip estimate of the conn's core.RTT
// (zero before the first acknowledged exchange): the controller's own on a
// plain conn, and over a PathSet the conn's estimator of the raw samples,
// not the rebased ones the controller reacts to. Deadline-aware servers use
// half of it as the one-way return-trip charge when anchoring propagated
// budgets.
func (c *Conn) SRTT() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rtt.Smoothed()
}

// LossRate reports the smoothed per-transmission loss rate in [0,1]
// (zero before any delivery verdict). Together with SRTT it is the wire
// signal pair the adaptive degradation controller consumes.
func (c *Conn) LossRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lossRate
}

// LostFrameCount reports how many transmissions were declared lost.
func (c *Conn) LostFrameCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.LostFrames
}

// requeueFrames is the path manager's sub-RTT failover hook: each listed
// frame that is still outstanding and not already queued goes straight
// back onto its band queue for immediate retransmission on a surviving
// path. Unlike a loss verdict this charges no retransmit budget and takes
// no loss sample — the frames were not lost to congestion, their carrier
// died under them.
func (c *Conn) requeueFrames(keys []frameKey) {
	c.mu.Lock()
	defer c.unlockAndDrain(c.clock.Now())
	if c.closed {
		return
	}
	for _, k := range keys {
		st := c.streamLocked(k.stream)
		if st == nil {
			continue
		}
		pp, ok := st.outstanding[k.seq]
		if !ok || pp.queued || pp.sending {
			continue
		}
		pp.queued = true
		c.enqueueLocked(st, k.seq, pp.payload, pp.pbuf, pp.traceID, pp.spanID)
	}
}

// Close stops the alarm, clears every deadline and closes the transport.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.state = StateClosed
	if c.alarm != nil {
		c.alarm.Stop()
	}
	var none vclock.Deadline
	c.alarmAt, c.paceAt, c.sweepAt, c.kaAt, c.ackAt = none, none, none, none, none
	c.paceArmed = false
	c.mu.Unlock()
	if c.cfg.OnStateChange != nil {
		c.cfg.OnStateChange(StateClosed)
	}
	if c.muxced {
		if c.onClose != nil {
			c.onClose()
		}
		return nil
	}
	return c.pc.Close()
}

// reallocateLocked distributes the budget across streams by priority; the
// caller must hold mu (the controller invokes it via OnChange from paths
// that do). Streams are visited in id order within each priority so
// allocation is deterministic under a virtual clock.
func (c *Conn) reallocateLocked() {
	remaining := c.ctrl.Budget()
	for p := core.PrioHighest; p <= core.PrioLowest; p++ {
		for _, st := range c.streams {
			if st.spec.Priority != p {
				continue
			}
			alloc := st.spec.Rate
			if alloc > remaining {
				alloc = remaining
			}
			remaining -= alloc
			if alloc != st.allocated {
				st.allocated = alloc
				if st.spec.OnAllocate != nil {
					// Callback without the lock would be nicer, but the
					// callbacks are rate setters; document the constraint.
					st.spec.OnAllocate(alloc)
				}
			}
		}
	}
}

// Send submits one application datagram on a stream. It reports whether
// the datagram was admitted (false = shed by graceful degradation) and
// errors only on misuse or closed connections.
func (c *Conn) Send(streamID uint16, payload []byte) (bool, error) {
	return c.SendTraced(streamID, payload, 0, 0)
}

// SendTraced is Send with trace context attached: when traceID is
// nonzero the frame (and any retransmission of it) is encoded with
// flagTraced set and the ids in its header, so the receiver can stitch its
// span onto the sender's trace. SendTraced(id, p, 0, 0) is exactly
// Send(id, p).
func (c *Conn) SendTraced(streamID uint16, payload []byte, traceID, spanID uint64) (bool, error) {
	if len(payload) > maxPlain(c.sealer != nil) {
		return false, fmt.Errorf("%w (%d bytes)", ErrOversize, len(payload))
	}
	c.mu.Lock()
	// One clock reading serves a frame that leaves at once: admission, the
	// pacing decision, lastSent and the SendMicro stamp.
	now := c.clock.Now()
	ok, err := c.sendLocked(streamID, payload, traceID, spanID, now)
	c.unlockAndDrain(now)
	return ok, err
}

func (c *Conn) sendLocked(streamID uint16, payload []byte, traceID, spanID uint64, now time.Time) (bool, error) {
	if c.closed {
		return false, ErrClosed
	}
	st := c.streamLocked(streamID)
	if st == nil {
		return false, fmt.Errorf("wire: unknown stream %d", streamID)
	}
	dt := now.Sub(st.lastFill).Seconds()
	st.lastFill = now
	size := len(payload) + HeaderLen
	st.tokens += st.allocated / 8 * dt
	if burst := float64(4 * size); st.tokens > burst {
		st.tokens = burst
	}
	if st.spec.Priority.Discardable() {
		if st.tokens < float64(size) {
			st.shed++
			return false, nil
		}
		st.tokens -= float64(size)
	}
	seq := st.nextSeq
	st.nextSeq++
	// The private copy lives in a pooled buffer; ownership follows the
	// frame through the band queue and (for reliable classes) the
	// outstanding map — see pool.go.
	buf, pbuf := getPayloadBuf(payload)
	if st.spec.Class != core.ClassFullBestEffort {
		pp := getPending()
		pp.payload, pp.pbuf = buf, pbuf
		pp.class = st.spec.Class
		pp.queued = true
		pp.traceID, pp.spanID = traceID, spanID
		if st.spec.Deadline > 0 {
			pp.deadline = now.Add(st.spec.Deadline)
		}
		st.outstanding[seq] = pp
		if c.sweepAt.At.IsZero() {
			// The first frame outstanding since a sweep found none: sweeps
			// resume on the epoch + k·sweepInterval grid they ran on before,
			// at the first grid point more than a clock granule away.
			since := now.Add(c.grain).Sub(c.epoch)
			c.setLocked(&c.sweepAt, now.Add(c.grain+sweepInterval-since%sweepInterval), now)
		}
	}
	c.enqueueLocked(st, seq, buf, pbuf, traceID, spanID)
	return true, nil
}

func (c *Conn) enqueueLocked(st *wstream, seq int64, payload []byte, pbuf *[]byte, traceID, spanID uint64) {
	hdr := Header{
		Type:    TypeData,
		Stream:  st.spec.ID,
		Class:   uint8(st.spec.Class),
		Prio:    uint8(st.spec.Priority),
		Seq:     seq,
		TraceID: traceID,
		SpanID:  spanID,
	}
	band := st.spec.Priority.Band()
	c.bands[band].push(outFrame{hdr: hdr, payload: payload, pbuf: pbuf})
	c.schedulePaceLocked()
}

// schedulePaceLocked gives the frame just queued a transmitter: the one the
// queue already has (paceArmed), or else the caller, who now owes the drain
// and pays it in unlockAndDrain. No timer is armed here: whether there is a
// gap to wait out is the drain's decision.
func (c *Conn) schedulePaceLocked() {
	if !c.paceArmed {
		c.paceArmed, c.drainOwed = true, true
	}
}

// unlockAndDrain ends a critical section that may have queued frames: it
// releases mu and, if the section came to owe the drain, transmits on this
// goroutine. now is the section's clock reading.
func (c *Conn) unlockAndDrain(now time.Time) {
	owed := c.drainOwed
	c.drainOwed = false
	c.mu.Unlock()
	if owed {
		c.drain(now)
	}
}

// paceDueLocked reports whether the head of the queue may leave at now —
// nextSend is within one clock granule. The granule of budget sent early
// is debt nextSend carries forward, so the rate still averages to the
// budget while no timer is asked to time what the clock cannot (44 µs on
// the system clock is a 1 ms sleep). When the head is not due this is the
// one place the pace deadline is set, always more than a granule away.
func (c *Conn) paceDueLocked(now time.Time) bool {
	c.paceAt = vclock.Deadline{}
	c.paceArmed = !c.closed && !c.emptyBandsLocked()
	if !c.paceArmed {
		return false
	}
	if c.nextSend.Sub(now) <= c.grain {
		return true
	}
	c.setLocked(&c.paceAt, c.nextSend, now)
	return false
}

// drain is the transmit loop: while the head of the queue is due it pops
// the frame at the head of the highest non-empty band and writes it, one
// frame per transport write, on the goroutine that made it sendable — the
// Send caller, the reader that decoded a NACK, or the alarm after a sweep or
// a gap. now is the caller's clock reading; the loop reads the clock
// again only when it goes round.
//
// Lock choreography: sendMu guards the frame buffer; mu covers the
// pop/stamp and the finalize/arm step, but is released around encode+write
// so the read path never waits on a system call. paceArmed stays set across
// the write, so whoever queues a frame meanwhile — another goroutine, or a
// transport that delivers inline and re-enters this Conn — leaves it to
// this loop, which looks at the queue again before it gives the role up.
func (c *Conn) drain(now time.Time) {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.mu.Lock()
	for round := 0; c.paceDueLocked(now); round++ {
		if round > 0 {
			now = c.clock.Now()
		}
		f, pp, peer := c.popLocked(now)
		c.mu.Unlock()
		sent := c.writePopped(&f, peer)
		c.mu.Lock()
		c.finishLocked(&f, pp, sent)
	}
	c.mu.Unlock()
}

// popLocked takes the frame at the head of the highest non-empty band
// (paceDueLocked has seen one), stamps it with now and advances nextSend by
// its budget gap. pp is the frame's pending record, nil for a best-effort
// frame or a sequence already acknowledged.
func (c *Conn) popLocked(now time.Time) (f outFrame, pp *wpending, peer *net.UDPAddr) {
	for b := range c.bands {
		if !c.bands[b].empty() {
			f = c.bands[b].pop()
			break
		}
	}
	f.hdr.SendMicro = uint64(now.Sub(c.epoch).Microseconds())
	if c.owedN > 0 {
		// Everything owed rides on this frame.
		f.hdr.Acks = c.takeAcksLocked(c.sendAcks[:0], now)
		c.AcksPiggybacked++
	}
	if st := c.streamLocked(f.hdr.Stream); st != nil {
		if p, ok := st.outstanding[f.hdr.Seq]; ok {
			p.queued = false
			p.lastSent = now
			p.sending = true
			pp = p
		}
		st.sent++
	}
	wireLen := headerLen(f.hdr) + len(f.payload)
	if c.sealer != nil {
		wireLen += sealedOver
	}
	if r := c.cfg.Recorder; r != nil {
		// RecordAt reuses the drain's clock reading, so the hot path pays
		// no extra clock call per frame.
		if pp != nil && pp.retx > 0 {
			r.RecordAt(now, obs.EvFrameRetransmit, uint8(pp.retx), f.hdr.Stream, uint32(f.hdr.Seq), uint64(wireLen))
		} else {
			r.RecordAt(now, obs.EvFrameSend, 0, f.hdr.Stream, uint32(f.hdr.Seq), uint64(wireLen))
		}
	}
	budget := c.ctrl.Budget()
	if budget < 1 {
		budget = 1
	}
	gap := time.Duration(float64(wireLen*8) / budget * float64(time.Second))
	if now.After(c.nextSend) {
		c.nextSend = now // idle time earns no credit; time sent early stays owed
	}
	c.nextSend = c.nextSend.Add(gap)
	return f, pp, c.peer
}

// finishLocked accounts a written frame and releases what it held.
func (c *Conn) finishLocked(f *outFrame, pp *wpending, sent bool) {
	if sent {
		c.SentFrames++
	}
	if pp != nil {
		pp.sending = false
		if pp.orphaned {
			// Acked (or dropped) while we were writing: the record already
			// left the outstanding map, so the buffers come home here.
			putPayloadBuf(pp.pbuf)
			putPending(pp)
		}
	} else if f.pbuf != nil {
		// Best-effort frame, or a reliable one whose record was removed
		// before the pop: the band reference was the last.
		putPayloadBuf(f.pbuf)
	}
}

// writePopped encodes the popped frame into the connection's frame buffer
// and hands it to the transport in one WriteToUDP. It reports whether the
// transport took it; a frame it refused is left to loss recovery, exactly
// like a dropped datagram.
func (c *Conn) writePopped(f *outFrame, peer *net.UDPAddr) bool {
	if peer == nil {
		return false
	}
	frame, err := c.encodeFrame((*c.sendFrame)[:0], f.hdr, f.payload)
	if err != nil {
		return false
	}
	_, err = c.pc.WriteToUDP(frame, peer)
	return err == nil
}

func (c *Conn) emptyBandsLocked() bool {
	for b := range c.bands {
		if !c.bands[b].empty() {
			return false
		}
	}
	return true
}

// handleDatagram parses and processes one inbound datagram. It is the
// transport's delivery callback, directly or through a Mux's route: on a
// real socket it runs on the reader goroutine (or a demux shard's drain),
// on a simulated transport on the event loop. backlog is the reader's (see
// Message.Backlog).
func (c *Conn) handleDatagram(dgram []byte, raddr *net.UDPAddr, backlog int) {
	hdr, payload, derr := DecodeFrame(dgram)
	if derr != nil {
		return // ignore malformed datagrams
	}
	if c.sealer != nil {
		// In-place open: the plaintext overwrites the ciphertext region of
		// the loaned delivery buffer, which handleDatagram is free to do —
		// the transport contract only loans the buffer for this call, and
		// every consumer below finishes synchronously: acks, nacks, pings,
		// and OnMessage, which is lent the plaintext for its call alone.
		plain, oerr := c.sealer.openInPlace(hdr, payload)
		if oerr != nil {
			c.mu.Lock()
			c.AuthFailures++
			c.mu.Unlock()
			return
		}
		payload = plain
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if c.peer == nil {
		c.peer = raddr
	}
	now := c.clock.Now()
	c.lastHeard = now
	revived := false
	if c.state == StateDead {
		c.state = StateActive
		revived = true
	}
	if len(hdr.Acks) > 0 {
		c.onAcksLocked(hdr.Acks, now) // whatever the frame's type
	}
	switch hdr.Type {
	case TypeData:
		c.onDataLocked(hdr, payload, len(dgram), now, backlog)
		if c.closed { // while mu was released around an ack write or OnMessage
			c.mu.Unlock()
			return
		}
	case TypeAck:
		// A header and a block, which is processed already.
	case TypeNack:
		c.onNackLocked(hdr, payload, now)
	case TypePing:
		pong := Header{Type: TypePong, SendMicro: hdr.SendMicro}
		c.writeFrame(pong, nil, c.peer) //nolint:errcheck // best-effort heartbeat
	case TypePong:
		// Liveness is the lastHeard update above; nothing else to do.
	}
	c.unlockAndDrain(now) // retransmissions a loss verdict queued leave from here
	if revived && c.cfg.OnStateChange != nil {
		c.cfg.OnStateChange(StateActive)
	}
}

// onDataLocked files one data frame: its acknowledgement is owed, and sent
// at once in the cases that cannot wait (with mu released around the write —
// the conn may be closed on return); a new frame is then delivered. wireLen
// is its size on the wire, now the reader's clock reading and backlog its
// count of datagrams behind this one.
func (c *Conn) onDataLocked(hdr Header, payload []byte, wireLen int, now time.Time, backlog int) {
	st := c.streamLocked(hdr.Stream)
	if st == nil {
		// The peer sends on a stream we did not declare: accept with
		// default state so one-directional setups work.
		st = newStream(StreamSpec{ID: hdr.Stream, Class: core.Class(hdr.Class), Priority: core.Priority(hdr.Prio)}, now)
		c.addStreamLocked(st)
	}
	expected := st.recv.Next()
	fresh := st.recv.Mark(hdr.Seq)
	// The acknowledgement names the frame alone, or the whole run when the
	// frame is part of it.
	ack := AckRange{Stream: hdr.Stream, First: hdr.Seq, Run: 1}
	switch {
	case !fresh: // a duplicate moves no run
	case hdr.Seq > expected:
		st.runStart = hdr.Seq // a gap: a new run starts here
	case hdr.Seq == st.runStart-1:
		// The hole below the run is filled: the run reaches back through it,
		// as far as is cheap to look (every ack since named what lies beyond).
		for n := 0; n < rejoinLimit && st.recv.Has(st.runStart-1); n++ {
			st.runStart--
		}
	}
	if first := max(st.runStart, st.recv.Floor()); hdr.Seq >= first {
		ack.First, ack.Run = first, uint16(st.recv.Next()-first)
	}
	c.oweAckLocked(ack, hdr.SendMicro, now)
	switch {
	case !fresh || hdr.Seq != expected || c.rtt.Smoothed() == 0 || c.owedN == MaxAckRanges:
		// A duplicate, an arrival out of order (the peer's loss detection
		// is waiting on it), a peer we cannot time a delay for, or no room
		// to owe more. The ack leaves before any NACK and before OnMessage.
		if c.flushAcksLocked(now); c.closed {
			return
		}
	case c.ackAt.At.IsZero():
		c.setLocked(&c.ackAt, now.Add(c.ackDelayLocked()), now)
	}
	if !fresh {
		st.dups++
		return
	}
	st.recvd++
	c.observeArrivalLocked(wireLen, now)

	// Gap-driven NACK for reliable classes: the holes this frame jumped
	// over, as far back as the window still reaches.
	if core.Class(hdr.Class) != core.ClassFullBestEffort && hdr.Seq > expected {
		missing := c.seqScratch[:0]
		for s := max(expected, st.recv.Floor()); s < hdr.Seq && len(missing) < 64; s++ {
			if st.recv.Nack(s) {
				missing = append(missing, s)
			}
		}
		c.seqScratch = missing[:0]
		if len(missing) > 0 {
			c.writeNackLocked(hdr.Stream, missing)
		}
	}
	if c.cfg.OnMessage != nil {
		// No copy: dgram is the transport's (or the mux's) loan for this
		// call, and OnMessage is lent the payload for the length of its own.
		msg := Message{
			Stream: hdr.Stream, Payload: payload, Conn: c,
			TraceID: hdr.TraceID, SpanID: hdr.SpanID, Backlog: backlog,
		}
		// Deliver without holding the lock.
		c.mu.Unlock()
		c.cfg.OnMessage(msg)
		c.mu.Lock()
	}
}

// oweAckLocked files one acknowledgement. A range that overlaps or abuts one
// already owed on its stream — an in-order arrival's run and the one its
// predecessor filed — is merged into it.
func (c *Conn) oweAckLocked(r AckRange, sendMicro uint64, now time.Time) {
	c.owedEcho, c.owedAt = sendMicro, now
	if c.owedN == 0 {
		c.owedSince = now
	}
	end := r.First + int64(r.Run)
	for i := range c.owed[:c.owedN] {
		if o := &c.owed[i]; o.Stream == r.Stream && r.First <= o.First+int64(o.Run) && o.First <= end {
			end = max(end, o.First+int64(o.Run))
			o.First = min(o.First, r.First)
			o.Run = uint16(min(end-o.First, 1<<16-1))
			return
		}
	}
	c.owed[c.owedN] = r
	c.owedN++
}

// takeAcksLocked encodes everything owed into dst as the block of a frame
// leaving at now, and owes nothing any more.
func (c *Conn) takeAcksLocked(dst []byte, now time.Time) AckBlock {
	b := AppendAckBlock(dst, c.owedEcho, now.Sub(c.owedAt), c.owed[:c.owedN])
	c.owedN = 0
	return b
}

// flushAcksLocked sends everything owed as one pure ack, with mu released
// around the write as drain does for data: the system call is most of a
// frame's cost and Send and the drain wait on mu. Owed acks always leave
// together, so none overtakes an earlier one.
func (c *Conn) flushAcksLocked(now time.Time) {
	var block [maxAckBlockLen]byte
	ack := Header{Type: TypeAck, Acks: c.takeAcksLocked(block[:0], now)}
	peer := c.peer
	c.AcksSent++
	c.mu.Unlock()
	c.writeFrame(ack, nil, peer) //nolint:errcheck // best-effort ack
	c.mu.Lock()
}

// ackDelayLocked is how long an acknowledgement may wait for a ride: a
// quarter of the round trip, so the peer's estimate of when it should have
// heard moves by little, but no less than the clock can time.
func (c *Conn) ackDelayLocked() time.Duration {
	return min(max(c.rtt.Smoothed()/4, c.grain), maxAckDelay)
}

// observeArrivalLocked accounts one new (not duplicate) data frame toward
// the peer's sending rate and, when the window is old enough, closes it.
func (c *Conn) observeArrivalLocked(wireLen int, now time.Time) {
	if c.arrStart.IsZero() {
		c.arrStart = now // the first frame opens the window and is not in it
		return
	}
	c.arrBits += wireLen * 8
	if el := now.Sub(c.arrStart); el >= core.BaseRTTFloor {
		c.ctrl.ObservePeerRate(float64(c.arrBits) / el.Seconds())
		c.arrStart, c.arrBits = now, 0
	}
}

// writeNackLocked sends the gap list, chunked so no single NACK payload
// can exceed MaxPayload (an oversized datagram would be rejected by the
// peer's decoder and silently lose the whole signal). The payload is
// built in a pooled buffer.
func (c *Conn) writeNackLocked(stream uint16, missing []int64) {
	for len(missing) > 0 {
		n := len(missing)
		if n > MaxNackEntries {
			n = MaxNackEntries
		}
		pb := payloadPool.Get().(*[]byte)
		p := AppendNackPayload((*pb)[:0], missing[:n])
		nack := Header{Type: TypeNack, Stream: stream}
		c.writeFrame(nack, p, c.peer) //nolint:errcheck // best-effort nack
		putPayloadBuf(pb)
		missing = missing[n:]
	}
}

// removePendingLocked retires a reliable frame's record from the
// outstanding map and returns its buffers to the pools — unless a band
// entry or an in-flight write still references them, in which case the
// transmit loop inherits the release (see pool.go for the full ownership
// rules).
func (c *Conn) removePendingLocked(st *wstream, seq int64, pp *wpending) {
	delete(st.outstanding, seq)
	if pp.queued {
		// A band entry still holds the payload and is now its sole owner;
		// the transmit loop releases it after the write when it finds no outstanding
		// record. The bookkeeping record itself is done with — recycle it.
		putPending(pp)
		return
	}
	if pp.sending {
		pp.orphaned = true // the transmit loop's finalize step releases both
		return
	}
	putPayloadBuf(pp.pbuf)
	putPending(pp)
}

// onAcksLocked processes the acknowledgement block of an arriving frame: one
// RTT sample — the hold subtracted, so a held ack does not read as a slow
// path — and, per stream named, one pass over what is outstanding that
// retires what a range covers and declares lost what has fallen more than
// the reorder slack behind the newest acknowledged sequence, in sequence
// order so nothing depends on map iteration.
func (c *Conn) onAcksLocked(b AckBlock, now time.Time) {
	at := now.Sub(c.epoch)
	rtt := at - time.Duration(b.Echo())*time.Microsecond - b.Hold()
	if rtt > 0 {
		delay := rtt
		if c.paths != nil {
			c.rtt.Update(rtt)
			delay = c.paths.rebaseRTT(rtt, b.Echo())
		}
		c.ctrl.OnAck(at, delay)
	}
	const reorderSlack = 3
	for i, n := 0, b.Len(); i < n; i++ {
		r := b.Range(i)
		st := c.streamLocked(r.Stream)
		if st == nil {
			continue
		}
		st.maxAcked = max(st.maxAcked, r.First+int64(r.Run)-1)
		if i+1 < n && b.Range(i+1).Stream == r.Stream {
			continue // the pass runs once per stream, after its last range
		}
		seqs := c.seqScratch[:0]
		for seq, pp := range st.outstanding {
			if b.Covers(r.Stream, seq) || seq < st.maxAcked-reorderSlack && c.lossEligibleLocked(pp, now) {
				seqs = append(seqs, seq)
			}
		}
		c.seqScratch = seqs[:0]
		slices.Sort(seqs)
		for _, seq := range seqs {
			pp := st.outstanding[seq]
			if !b.Covers(r.Stream, seq) {
				c.onLostLocked(st, seq, pp, now)
				continue
			}
			c.lossSampleLocked(0)
			c.cfg.Recorder.RecordAt(now, obs.EvFrameAck, 0, r.Stream, uint32(seq), uint64(rtt.Microseconds()))
			c.removePendingLocked(st, seq, pp)
		}
	}
}

// loseLocked declares the listed outstanding sequences of st lost, in
// sequence order at now. seqs is (a prefix of) seqScratch.
func (c *Conn) loseLocked(st *wstream, seqs []int64, now time.Time) {
	c.seqScratch = seqs[:0]
	slices.Sort(seqs)
	for _, seq := range seqs {
		if pp, ok := st.outstanding[seq]; ok {
			c.onLostLocked(st, seq, pp, now)
		}
	}
}

func (c *Conn) onNackLocked(hdr Header, payload []byte, now time.Time) {
	missing, err := DecodeNackPayload(payload)
	if err != nil {
		return
	}
	st := c.streamLocked(hdr.Stream)
	if st == nil {
		return
	}
	for _, seq := range missing {
		if pp, ok := st.outstanding[seq]; ok && c.lossEligibleLocked(pp, now) {
			c.onLostLocked(st, seq, pp, now)
		}
	}
}

func (c *Conn) lossEligibleLocked(pp *wpending, now time.Time) bool {
	if pp.queued || pp.sending || pp.lastSent.IsZero() {
		return false
	}
	return now.Sub(pp.lastSent) >= max(c.rtt.Smoothed(), 5*time.Millisecond)
}

// lossEWMAGain smooths the per-transmission loss indicator; 1/16 rides
// out single bursts while still tracking a Gilbert–Elliott bad state
// within a handful of frames.
const lossEWMAGain = 1.0 / 16

// lossSampleLocked folds one delivery verdict (0 delivered, 1 lost) into
// the smoothed loss rate.
func (c *Conn) lossSampleLocked(lost float64) {
	if !c.lossKnown {
		c.lossRate, c.lossKnown = lost, true
		return
	}
	c.lossRate += lossEWMAGain * (lost - c.lossRate)
}

// onLostLocked acts on one loss verdict reached at the caller's now.
func (c *Conn) onLostLocked(st *wstream, seq int64, pp *wpending, now time.Time) {
	c.lossSampleLocked(1)
	c.LostFrames++
	c.cfg.Recorder.Record(obs.EvFrameLost, uint8(pp.retx), st.spec.ID, uint32(seq), 0)
	c.ctrl.OnLoss(now.Sub(c.epoch), !st.spec.Priority.Discardable())
	if pp.class == core.ClassLossRecovery {
		affordable := pp.deadline.IsZero() ||
			(c.rtt.Smoothed() > 0 && now.Add(c.rtt.Smoothed()/2).Before(pp.deadline))
		if !affordable || pp.retx >= c.cfg.RetxLimit {
			c.removePendingLocked(st, seq, pp)
			return
		}
	}
	if pp.class == core.ClassCritical && pp.retx >= c.cfg.RetxLimit*4 {
		c.removePendingLocked(st, seq, pp)
		return
	}
	pp.retx++
	pp.queued = true
	st.retx++
	c.enqueueLocked(st, seq, pp.payload, pp.pbuf, pp.traceID, pp.spanID)
}

// StreamStats is a snapshot of one stream's counters.
type StreamStats struct {
	Sent, Shed, Retx, Received, Duplicates int64
	Allocated                              float64
}

// snapshot copies the stream counters field by field; every StreamStats
// produced anywhere in the package goes through this one helper so the
// snapshot cannot drift out of sync with the counter set. The caller
// must hold the owning Conn's mu.
func (st *wstream) snapshot() StreamStats {
	return StreamStats{
		Sent: st.sent, Shed: st.shed, Retx: st.retx,
		Received: st.recvd, Duplicates: st.dups,
		Allocated: st.allocated,
	}
}

// AuthFailureCount reports how many sealed frames failed authentication
// (corrupted or forged datagrams dropped before any protocol processing).
func (c *Conn) AuthFailureCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.AuthFailures
}

// AckStats reports how acknowledgements left: pure-ack datagrams written, and
// blocks that rode a data frame instead.
func (c *Conn) AckStats() (sent, piggybacked int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.AcksSent, c.AcksPiggybacked
}

// streamSeqs snapshots every sending stream's next sequence number, for
// session resumption.
func (c *Conn) streamSeqs() map[uint16]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint16]int64, len(c.streams))
	for _, st := range c.streams {
		out[st.spec.ID] = st.nextSeq
	}
	return out
}

// setStreamSeqs fast-forwards sending sequence numbers to at least the
// given values. A resumed session calls this before any Send so the peer's
// duplicate filter (which remembers the pre-outage sequence space) does
// not swallow fresh data.
func (c *Conn) setStreamSeqs(seqs map[uint16]int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, seq := range seqs {
		if st := c.streamLocked(id); st != nil && seq > st.nextSeq {
			st.nextSeq = seq
		}
	}
}

// Stats returns a snapshot for a stream.
func (c *Conn) Stats(streamID uint16) StreamStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.streamLocked(streamID)
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
	reg.CounterFunc("mar_wire_frames_sent_total", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.SentFrames
	}, labels...)
	reg.CounterFunc("mar_wire_acks_sent_total", func() int64 {
		sent, _ := c.AckStats()
		return sent
	}, labels...)
	reg.CounterFunc("mar_wire_acks_piggybacked_total", func() int64 {
		_, piggybacked := c.AckStats()
		return piggybacked
	}, labels...)
	reg.CounterFunc("mar_wire_auth_failures_total", c.AuthFailureCount, labels...)
	reg.GaugeFunc("mar_wire_srtt_seconds", func() float64 { return c.SRTT().Seconds() }, labels...)
	reg.GaugeFunc("mar_wire_loss_rate", c.LossRate, labels...)
	reg.CounterFunc("mar_wire_frames_lost_total", c.LostFrameCount, labels...)
	reg.GaugeFunc("mar_wire_budget_bps", c.Budget, labels...)

	c.mu.Lock()
	ids := make([]uint16, 0, len(c.streams))
	for _, st := range c.streams {
		ids = append(ids, st.spec.ID)
	}
	c.mu.Unlock()
	for _, id := range ids {
		id := id
		ls := append(append([]obs.Label(nil), labels...), obs.L("stream", strconv.Itoa(int(id))))
		reg.CounterFunc("mar_wire_stream_sent_total", func() int64 { return c.Stats(id).Sent }, ls...)
		reg.CounterFunc("mar_wire_stream_shed_total", func() int64 { return c.Stats(id).Shed }, ls...)
		reg.CounterFunc("mar_wire_stream_retx_total", func() int64 { return c.Stats(id).Retx }, ls...)
		reg.CounterFunc("mar_wire_stream_received_total", func() int64 { return c.Stats(id).Received }, ls...)
		reg.CounterFunc("mar_wire_stream_duplicates_total", func() int64 { return c.Stats(id).Duplicates }, ls...)
		reg.GaugeFunc("mar_wire_stream_allocated_bps", func() float64 { return c.Stats(id).Allocated }, ls...)
	}
}
