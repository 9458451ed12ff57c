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
	Stream  uint16
	Seq     int64
	Payload []byte
	// Peer is the remote address the datagram came from and Conn the
	// connection that delivered it (useful behind a Mux, where one handler
	// serves many peers and answers on the connection the request came in
	// on).
	Peer *net.UDPAddr
	Conn *Conn
	// TraceID/SpanID carry the sender's trace context when the frame was
	// traced (wire v3); both are zero for untraced frames. SpanID names
	// the sender's span — the parent of any span the receiver starts.
	TraceID uint64
	SpanID  uint64
}

// State is the liveness of a connection's peer as judged by keepalive.
type State int

// Connection states.
const (
	// StateActive: frames (or heartbeat replies) are arriving.
	StateActive State = iota
	// StateDead: KeepaliveMiss probe intervals elapsed with nothing heard.
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
	// OnMessage is invoked from the read loop for every newly received
	// data frame (duplicates are filtered). The payload is owned by the
	// callee.
	OnMessage func(Message)
	// Key, when set (16/24/32 bytes), seals every payload with AES-GCM and
	// authenticates headers (Section VI-G). Both endpoints must share it.
	Key []byte
	// Keepalive, when > 0, sends a heartbeat ping every interval and
	// declares the peer dead after KeepaliveMiss unanswered intervals.
	// Peers answer pings automatically whether or not they enable
	// keepalive themselves.
	Keepalive time.Duration
	// KeepaliveMiss is how many silent probe intervals mean death
	// (default 3).
	KeepaliveMiss int
	// OnStateChange observes liveness transitions (Active↔Dead, and Closed
	// on local close). It is called without internal locks held; it must
	// not call back into blocking Conn methods from the same goroutine it
	// wants to keep serviced.
	OnStateChange func(State)
	// Clock supplies time and timer scheduling for every protocol timer
	// (pacing gaps, the retransmit sweep, keepalive). Nil means the system
	// clock; internal/marsim injects a virtual clock so the identical
	// protocol code runs on deterministic simulated time.
	Clock vclock.Clock
	// Recorder, when set, receives flight-recorder events from the
	// datapath: frame sends, retransmits, acks and loss verdicts. Nil (the
	// default) costs one pointer check per event site. Give it the same
	// Clock as the connection so its timeline lines up with the protocol.
	Recorder *obs.FlightRecorder
	// MaxBurst caps how many queued frames one pass of the transmit loop
	// may coalesce into a single batch write when the transport supports
	// batching (BatchWriter); the default (0 or 1) writes one frame at a
	// time. A burst still pays its full serialization time: nextSend
	// advances by the batch's cumulative budget gap, so the average rate
	// honors the controller exactly — only the micro-spacing inside one
	// burst collapses (the same argument lets the pacer send a frame up to
	// one clock granule early, see drain). Values above MaxBatchFrames are
	// clamped.
	MaxBurst int
}

// MaxBatchFrames bounds MaxBurst (and sizes the per-connection batch
// scratch): more frames per syscall than this yields no measurable win
// and inflates jitter for competing flows.
const MaxBatchFrames = 64

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

func (q *frameQueue) len() int { return len(q.buf) - q.head }

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

// popped pairs a frame being written with its pending record (nil for
// best-effort frames or sequences already acknowledged).
type popped struct {
	f  outFrame
	pp *wpending
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
// sendable (see drain); the protocol timers (pacing gaps, sweep, keepalive)
// run as reset-in-place timer chains on the injected clock, so a Conn over
// a synchronous simulated transport spawns no goroutines at all — and the
// steady-state send path allocates nothing.
type Conn struct {
	pc    PacketConn
	bw    BatchWriter // pc's batch capability, nil when unsupported
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
	done      chan struct{}
	sealer    *sealer // nil when Config.Key is unset
	state     State
	lastHeard time.Time // last authenticated frame from the peer

	// Timer chains (guarded by mu). Each timer object is created once and
	// re-armed in place (vclock.Rearm), keeping the chains allocation-free.
	// nextSend is the earliest instant the next frame may be serialized,
	// enforcing the budget gap across idle periods. paceArmed says the
	// queued frames have a transmitter: a drain that is owed or running, or
	// the pace timer waiting out a gap. drainOwed tells a critical section's
	// own unlockAndDrain that it is the caller; false whenever mu is free.
	paceTimer  vclock.Timer
	paceArmed  bool
	drainOwed  bool
	paceFn     func()
	nextSend   time.Time
	sweepTimer vclock.Timer
	sweepFn    func()
	kaTimer    vclock.Timer
	kaFn       func()

	// Acknowledgements owed to the peer (guarded by mu; header.go,
	// "Acknowledgements"): the ranges, the send stamp and arrival time of
	// the newest data frame among them (the echo, and what the hold is
	// measured from), and when the oldest was filed. ackTimer sends them
	// as a pure ack if nothing rode in time; ackArmed says it is pending.
	owed      [MaxAckRanges]AckRange
	owedN     int
	owedEcho  uint64
	owedAt    time.Time
	owedSince time.Time
	ackTimer  vclock.Timer
	ackArmed  bool
	ackFn     func()

	// sendMu serializes the transmit loop's pop→encode→write→finalize
	// cycle and guards the batch scratch. Lock order: sendMu before mu,
	// never the reverse.
	sendMu     sync.Mutex
	sendPops   []popped
	sendDgs    []Datagram
	sendFrames []*[]byte            // per-slot frame buffers, grown to MaxBurst once
	sendAcks   [maxAckBlockLen]byte // the block riding the burst being written

	// seqScratch backs the sequence lists built under mu: the gap list on
	// the receive path, the loss candidates of an ack or a sweep.
	seqScratch []int64

	// The peer's sending rate, measured on arrivals (guarded by mu): wire
	// bits of new data frames since arrStart. The first arrival at least
	// core.BaseRTTFloor later closes the window and hands bits ÷ elapsed to
	// the controller — no timer, only the event stream.
	arrStart time.Time
	arrBits  int

	// srtt is the measured smoothed RTT everything that times the network
	// reads. The controller is fed the same samples, except over a PathSet
	// (set once by bindConn), where each is rebased onto the path that
	// carried the frame it echoes (PathSet.rebaseRTT). Guarded by mu.
	paths *PathSet
	srtt  time.Duration

	// Mux mode: datagrams arrive via the mux's shared transport (through
	// recvCh and a pump goroutine on asynchronous transports, direct
	// dispatch on synchronous ones), writes go through the shared
	// transport, and Close must not close it.
	recvCh  chan demuxPkt
	muxced  bool
	onClose func()

	wg sync.WaitGroup

	// Stats (guarded by mu).
	SentFrames      int64
	AcksSent        int64 // pure-ack datagrams written
	AcksPiggybacked int64 // acknowledgement blocks that rode a data frame
	BatchWrites     int64 // transport writes that carried more than one frame
	BatchFrames     int64 // frames sent inside multi-frame writes
	AckedRTT        time.Duration
	AuthFailures    int64
	LostFrames      int64 // transmissions declared lost (gap, nack or sweep)
	Failovers       int64 // frames re-enqueued off a dead path by the path manager

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
	var sl *sealer
	if cfg.Key != nil {
		var err error
		if sl, err = newSealer(cfg.Key); err != nil {
			pc.Close()
			return nil, err
		}
	}
	if cfg.StartBudget <= 0 {
		cfg.StartBudget = 1e6
	}
	if cfg.RetxLimit <= 0 {
		cfg.RetxLimit = 3
	}
	c := newConnCommon(pc, peer, cfg, sl)
	c.start()
	return c, nil
}

// newConnCommon builds the connection state without starting delivery or
// timers.
func newConnCommon(pc PacketConn, peer *net.UDPAddr, cfg Config, sl *sealer) *Conn {
	if cfg.KeepaliveMiss <= 0 {
		cfg.KeepaliveMiss = 3
	}
	if cfg.MaxBurst < 1 {
		cfg.MaxBurst = 1
	}
	if cfg.MaxBurst > MaxBatchFrames {
		cfg.MaxBurst = MaxBatchFrames
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
		done:      make(chan struct{}),
		sealer:    sl,
		state:     StateActive,
		lastHeard: now,
		nextSend:  now,
	}
	c.bw, _ = pc.(BatchWriter)
	if ps, ok := pc.(*PathSet); ok {
		// A Conn built directly over a PathSet gets the sub-RTT failover
		// hook: path-down evacuation re-enqueues in-flight frames here.
		ps.bindConn(c)
	}
	c.paceFn = c.paceFire
	c.sweepFn = c.sweepFire
	c.kaFn = c.keepaliveFire
	c.ackFn = c.ackFire
	burst := cfg.MaxBurst
	c.sendPops = make([]popped, 0, burst)
	c.sendDgs = make([]Datagram, 0, burst)
	c.sendFrames = make([]*[]byte, burst)
	for i := range c.sendFrames {
		c.sendFrames[i] = getFrameBuf()
	}
	for _, spec := range cfg.Streams {
		st := newStream(spec, now)
		st.tokens = 4 * 1500 // initial burst credit
		c.addStreamLocked(st)
	}
	c.ctrl.SetOnChange(c.reallocateLocked)
	c.reallocateLocked()
	return c
}

// start begins inbound delivery and arms the periodic timer chains.
func (c *Conn) start() {
	if !c.muxced {
		c.pc.Start(c.handleDatagram)
	} else if !c.pc.Synchronous() {
		c.wg.Add(1)
		go c.muxPump()
	}
	c.mu.Lock()
	c.sweepTimer = c.clock.AfterFunc(sweepInterval, c.sweepFn)
	if c.cfg.Keepalive > 0 {
		c.kaTimer = c.clock.AfterFunc(c.cfg.Keepalive, c.kaFn)
	}
	c.mu.Unlock()
}

// muxPump feeds datagrams queued by an asynchronous mux into the protocol;
// synchronous (simulated) transports dispatch directly instead. The buffer
// is the mux's loan: it goes back to the pool (poisoned in debug builds)
// as soon as the protocol is done with it.
func (c *Conn) muxPump() {
	defer c.wg.Done()
	for {
		select {
		case p := <-c.recvCh:
			c.handleDatagram((*p.buf)[:p.n], c.peer)
			PoisonBuf((*p.buf)[:p.n])
			demuxBufPool.Put(p.buf)
		case <-c.done:
			return
		}
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

// keepaliveFire probes the peer every Keepalive interval and flips the
// connection state when the silence threshold is crossed (Section VI:
// dead-peer detection is what lets the session layer fail over instead of
// stalling on a blackholed path).
func (c *Conn) keepaliveFire() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	interval := c.cfg.Keepalive
	deadAfter := time.Duration(c.cfg.KeepaliveMiss) * interval
	peer := c.peer
	silent := c.clock.Now().Sub(c.lastHeard)
	notify := State(-1)
	if c.state == StateActive && silent >= deadAfter {
		c.state = StateDead
		notify = StateDead
	}
	c.kaTimer = vclock.Rearm(c.clock, c.kaTimer, interval, c.kaFn)
	c.mu.Unlock()
	if notify != State(-1) && c.cfg.OnStateChange != nil {
		c.cfg.OnStateChange(notify)
	}
	if peer != nil {
		ping := Header{Type: TypePing, SendMicro: uint64(c.now().Microseconds())}
		c.writeFrame(ping, nil, peer) //nolint:errcheck // best-effort probe
	}
}

// State reports the current liveness judgement.
func (c *Conn) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
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

// SRTT reports the controller's smoothed round-trip estimate (zero before
// the first acknowledged exchange). Deadline-aware servers use half of it
// as the one-way return-trip charge when anchoring propagated budgets.
func (c *Conn) SRTT() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srtt
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

// FailoverCount reports how many in-flight frames were re-enqueued onto
// surviving paths after a path manager declared their path dead.
func (c *Conn) FailoverCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Failovers
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
		c.Failovers++
		c.enqueueLocked(st, k.seq, pp.payload, pp.pbuf, pp.traceID, pp.spanID)
	}
}

// Close stops all timers and closes the transport.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.state = StateClosed
	close(c.done)
	for _, t := range []vclock.Timer{c.paceTimer, c.sweepTimer, c.kaTimer, c.ackTimer} {
		if t != nil {
			t.Stop()
		}
	}
	c.paceTimer, c.sweepTimer, c.kaTimer, c.ackTimer = nil, nil, nil, nil
	c.paceArmed, c.ackArmed = false, false
	c.mu.Unlock()
	if c.cfg.OnStateChange != nil {
		c.cfg.OnStateChange(StateClosed)
	}
	var err error
	if c.muxced {
		if c.onClose != nil {
			c.onClose()
		}
	} else {
		err = c.pc.Close()
	}
	c.wg.Wait()
	return err
}

func (c *Conn) now() time.Duration { return c.clock.Now().Sub(c.epoch) }

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
// nonzero the frame (and any retransmission of it) is encoded as wire
// v3 carrying the ids, so the receiver can stitch its span onto the
// sender's trace. SendTraced(id, p, 0, 0) is exactly Send(id, p).
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

// paceFire is the pace timer's callback: the gap it was armed for is over.
func (c *Conn) paceFire() { c.drain(c.clock.Now()) }

// paceDueLocked reports whether the head of the queue may leave at now —
// nextSend is within one clock granule. The granule of budget sent early
// is debt nextSend carries forward, so the rate still averages to the
// budget while no timer is asked to time what the clock cannot (44 µs on
// the system clock is a 1 ms sleep). When the head is not due this is the
// one place the pace timer is armed, always for more than a granule.
func (c *Conn) paceDueLocked(now time.Time) bool {
	c.paceArmed = !c.closed && !c.emptyBandsLocked()
	if !c.paceArmed {
		return false
	}
	d := c.nextSend.Sub(now)
	if d <= c.grain {
		return true
	}
	if c.paceTimer == nil {
		c.paceTimer = c.clock.AfterFunc(d, c.paceFn)
	} else {
		c.paceTimer = vclock.Rearm(c.clock, c.paceTimer, d, c.paceFn)
	}
	return false
}

// drain is the transmit loop: while the head of the queue is due it pops
// up to MaxBurst frames from the highest non-empty bands into one
// transport write, on the goroutine that made them sendable — the Send
// caller, the reader that decoded a NACK, the sweep, or the pace timer
// after a gap. now is the caller's clock reading; the loop reads the clock
// again only when it goes round.
//
// Lock choreography: sendMu guards the batch scratch; mu covers the
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
		pops, peer := c.popBurstLocked(now)
		c.mu.Unlock()
		sent := c.writePopped(pops, peer)
		c.mu.Lock()
		c.finishBurstLocked(pops, sent, peer)
	}
	c.mu.Unlock()
}

// popBurstLocked takes the next burst off the bands, stamps it with now and
// advances nextSend by its budget gap.
func (c *Conn) popBurstLocked(now time.Time) ([]popped, *net.UDPAddr) {
	burst := c.cfg.MaxBurst
	if c.bw == nil {
		burst = 1
	}
	pops := c.sendPops[:0]
	nowStamp := uint64(now.Sub(c.epoch).Microseconds())
	totalWire := 0
	for len(pops) < burst {
		var f outFrame
		found := false
		for b := range c.bands {
			if !c.bands[b].empty() {
				f = c.bands[b].pop()
				found = true
				break
			}
		}
		if !found {
			break
		}
		f.hdr.SendMicro = nowStamp
		if c.owedN > 0 {
			// Everything owed rides on the first frame of the burst.
			f.hdr.Acks = c.takeAcksLocked(c.sendAcks[:0], now)
			c.AcksPiggybacked++
		}
		var pp *wpending
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
		totalWire += wireLen
		if r := c.cfg.Recorder; r != nil {
			// RecordAt reuses the drain's clock reading, so the hot
			// path pays no extra clock call per frame.
			if pp != nil && pp.retx > 0 {
				r.RecordAt(now, obs.EvFrameRetransmit, uint8(pp.retx), f.hdr.Stream, uint32(f.hdr.Seq), uint64(wireLen))
			} else {
				r.RecordAt(now, obs.EvFrameSend, 0, f.hdr.Stream, uint32(f.hdr.Seq), uint64(wireLen))
			}
		}
		pops = append(pops, popped{f: f, pp: pp})
	}
	c.sendPops = pops[:0] // keep the (possibly grown) scratch
	budget := c.ctrl.Budget()
	if budget < 1 {
		budget = 1
	}
	gap := time.Duration(float64(totalWire*8) / budget * float64(time.Second))
	if now.After(c.nextSend) {
		c.nextSend = now // idle time earns no credit; time sent early stays owed
	}
	c.nextSend = c.nextSend.Add(gap)
	return pops, c.peer
}

// finishBurstLocked accounts a written burst and releases what it held.
func (c *Conn) finishBurstLocked(pops []popped, sent int, peer *net.UDPAddr) {
	if peer != nil {
		c.SentFrames += int64(sent)
		if len(pops) > 1 {
			c.BatchWrites++
			c.BatchFrames += int64(sent)
		}
	}
	for i := range pops {
		p := &pops[i]
		if p.pp != nil {
			p.pp.sending = false
			if p.pp.orphaned {
				// Acked (or dropped) while we were writing: the record
				// already left the outstanding map, so the buffers come
				// home here.
				putPayloadBuf(p.pp.pbuf)
				putPending(p.pp)
			}
		} else if p.f.pbuf != nil {
			// Best-effort frame, or a reliable one whose record was
			// removed before the pop: the band reference was the last.
			putPayloadBuf(p.f.pbuf)
		}
		pops[i] = popped{}
	}
}

// writePopped encodes the popped frames into the per-connection frame
// buffers and hands them to the transport — one WriteToUDP for a single
// frame, one batch write for several. It reports how many frames the
// transport accepted; unsent tail frames on a short batch are accounted
// as loss, exactly like a dropped datagram.
func (c *Conn) writePopped(pops []popped, peer *net.UDPAddr) int {
	if peer == nil {
		return 0
	}
	dgs := c.sendDgs[:0]
	for i := range pops {
		fb := c.sendFrames[i]
		frame, err := c.encodeFrame((*fb)[:0], pops[i].f.hdr, pops[i].f.payload)
		if err != nil {
			continue
		}
		dgs = append(dgs, Datagram{B: frame, Addr: peer})
	}
	c.sendDgs = dgs[:0]
	switch {
	case len(dgs) == 0:
		return 0
	case len(dgs) == 1:
		if _, err := c.pc.WriteToUDP(dgs[0].B, peer); err != nil {
			return 0
		}
		return 1
	default:
		n, _ := c.bw.WriteBatch(dgs)
		return n
	}
}

func (c *Conn) emptyBandsLocked() bool {
	for b := range c.bands {
		if !c.bands[b].empty() {
			return false
		}
	}
	return true
}

// QueuedFrames reports how many frames are waiting in the pacing bands —
// the sender-side backlog a saturation workload watches to keep the pipe
// full without unbounded queue growth.
func (c *Conn) QueuedFrames() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for b := range c.bands {
		n += c.bands[b].len()
	}
	return n
}

// handleDatagram parses and processes one inbound datagram. It is the
// transport's delivery callback: on a real socket it runs on the reader
// goroutine, on a simulated transport it runs on the event loop.
func (c *Conn) handleDatagram(dgram []byte, raddr *net.UDPAddr) {
	hdr, payload, derr := DecodeFrame(dgram)
	if derr != nil {
		return // ignore malformed datagrams
	}
	if c.sealer != nil {
		// In-place open: the plaintext overwrites the ciphertext region of
		// the loaned delivery buffer, which handleDatagram is free to do —
		// the transport contract only loans the buffer for this call, and
		// every consumer below either finishes synchronously (acks, nacks,
		// pings) or copies (onDataLocked hands OnMessage its own copy).
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
		c.onDataLocked(hdr, payload, len(dgram), now)
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
// is its size on the wire and now the reader's clock reading.
func (c *Conn) onDataLocked(hdr Header, payload []byte, wireLen int, now time.Time) {
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
	case !fresh || hdr.Seq != expected || c.srtt == 0 || c.owedN == MaxAckRanges:
		// A duplicate, an arrival out of order (the peer's loss detection
		// is waiting on it), a peer we cannot time a delay for, or no room
		// to owe more. The ack leaves before any NACK and before OnMessage.
		if c.flushAcksLocked(now); c.closed {
			return
		}
	case !c.ackArmed:
		c.armAckLocked(c.ackDelayLocked())
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
		// The one copy on the receive path: dgram is the transport's (or
		// the mux's) loan, and OnMessage may keep what it is handed.
		msg := Message{
			Stream: hdr.Stream, Seq: hdr.Seq,
			Payload: append([]byte(nil), payload...), Peer: c.peer, Conn: c,
			TraceID: hdr.TraceID, SpanID: hdr.SpanID,
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
	return min(max(c.srtt/4, c.grain), maxAckDelay)
}

// armAckLocked arms the ack timer, when something is owed and it is not
// pending; a ride that empties the list lets it fire on nothing (no Stop).
func (c *Conn) armAckLocked(d time.Duration) {
	c.ackArmed = true
	if c.ackTimer == nil {
		c.ackTimer = c.clock.AfterFunc(d, c.ackFn)
	} else {
		c.ackTimer = vclock.Rearm(c.clock, c.ackTimer, d, c.ackFn)
	}
}

// ackFire is the ack timer's callback: what is owed and old enough leaves as
// a pure ack; what was filed after a ride emptied the list waits out the
// rest of its own delay.
func (c *Conn) ackFire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ackArmed = false
	if c.closed || c.owedN == 0 {
		return
	}
	now := c.clock.Now()
	if wait := c.ackDelayLocked() - now.Sub(c.owedSince); wait > 0 {
		c.armAckLocked(max(wait, c.grain))
		return
	}
	c.flushAcksLocked(now)
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
		c.AckedRTT = rtt
		if c.srtt == 0 {
			c.srtt = rtt
		} else {
			c.srtt = (7*c.srtt + rtt) / 8
		}
		delay := rtt
		if c.paths != nil {
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
				c.onLostLocked(st, seq, pp)
				continue
			}
			c.lossSampleLocked(0)
			c.cfg.Recorder.RecordAt(now, obs.EvFrameAck, 0, r.Stream, uint32(seq), uint64(rtt.Microseconds()))
			c.removePendingLocked(st, seq, pp)
		}
	}
}

// loseLocked declares the listed outstanding sequences of st lost, in
// sequence order. seqs is (a prefix of) seqScratch.
func (c *Conn) loseLocked(st *wstream, seqs []int64) {
	c.seqScratch = seqs[:0]
	slices.Sort(seqs)
	for _, seq := range seqs {
		if pp, ok := st.outstanding[seq]; ok {
			c.onLostLocked(st, seq, pp)
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
			c.onLostLocked(st, seq, pp)
		}
	}
}

func (c *Conn) lossEligibleLocked(pp *wpending, now time.Time) bool {
	if pp.queued || pp.sending || pp.lastSent.IsZero() {
		return false
	}
	return now.Sub(pp.lastSent) >= max(c.srtt, 5*time.Millisecond)
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

func (c *Conn) onLostLocked(st *wstream, seq int64, pp *wpending) {
	c.lossSampleLocked(1)
	c.LostFrames++
	c.cfg.Recorder.Record(obs.EvFrameLost, uint8(pp.retx), st.spec.ID, uint32(seq), 0)
	c.ctrl.OnLoss(c.now(), !st.spec.Priority.Discardable())
	if pp.class == core.ClassLossRecovery {
		affordable := pp.deadline.IsZero() ||
			(c.srtt > 0 && c.clock.Now().Add(c.srtt/2).Before(pp.deadline))
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

// sweepFire retransmits reliable tail losses that produce no gap signal,
// then re-arms itself. Streams and sequences are visited in sorted order
// so the retransmission schedule is deterministic; a sweep that finds
// nothing stale — nearly all of them — sorts and allocates nothing.
func (c *Conn) sweepFire() {
	c.mu.Lock()
	now := c.clock.Now()
	defer c.unlockAndDrain(now)
	if c.closed {
		return
	}
	stale := 2 * c.srtt
	if stale < 100*time.Millisecond {
		stale = 100 * time.Millisecond
	}
	for _, st := range c.streams {
		lost := c.seqScratch[:0]
		for seq, pp := range st.outstanding {
			if !pp.queued && !pp.sending && !pp.lastSent.IsZero() && now.Sub(pp.lastSent) >= stale {
				lost = append(lost, seq)
			}
		}
		c.loseLocked(st, lost)
	}
	c.sweepTimer = vclock.Rearm(c.clock, c.sweepTimer, sweepInterval, c.sweepFn)
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

// BatchStats reports the batch-coalescing counters: how many transport
// writes carried more than one frame, and how many frames rode in them.
func (c *Conn) BatchStats() (writes, frames int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.BatchWrites, c.BatchFrames
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
	reg.CounterFunc("mar_wire_batch_writes_total", func() int64 {
		w, _ := c.BatchStats()
		return w
	}, labels...)
	reg.CounterFunc("mar_wire_batch_frames_total", func() int64 {
		_, f := c.BatchStats()
		return f
	}, labels...)
	reg.GaugeFunc("mar_wire_batch_frames_avg", func() float64 {
		w, f := c.BatchStats()
		if w == 0 {
			return 0
		}
		return float64(f) / float64(w)
	}, labels...)
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
