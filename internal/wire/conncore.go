package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/vclock"
)

// connCore is the protocol state of one ARTP connection and the rules that
// change it: streams, band queues, windows, owed acks, frames outstanding,
// the controller, core.RTT, the loss EWMA, four deadlines and, on a
// multipath conn, the pathTable (pathtable.go). It has no lock, clock or
// socket: each method takes the caller's now, what is to be sent comes out
// of poll and pollControl encoded, with the path it takes, and what is to
// be delivered out of onDatagram. Conn drives it (conn.go).
type connCore struct {
	epoch       time.Time
	grain       time.Duration    // the clock's timer floor: no pace deadline is shorter
	seq         vclock.Sequencer // the clock's, if it has one: deadline stamps
	retxLimit   int
	keepalive   time.Duration
	startBudget float64 // what a controller starts from, at init and at each re-bind
	rec         *obs.FlightRecorder
	sealer      *sealer // nil when Config.Key is unset

	ctrl      *core.Controller
	streams   []*wstream // sorted by id; the order is fixed at declaration
	bands     [4]frameQueue
	ctl       []byte // control datagrams owed, each encoded behind its length and path
	ctlHead   int    // where the oldest starts
	state     State
	lastHeard time.Time // last authenticated frame from the peer

	// Deadlines, each with its place among same-instant timers: paceAt is
	// nextSend while the pacer waits out a gap, sweepAt the next sweep while
	// anything is outstanding, kaAt the next probe, ackAt when owed acks leave
	// alone. nextSend is the earliest instant the next frame may leave, the
	// budget gap kept across idle periods. paceArmed says the queued frames
	// have a transmitter (a drain owed or running, or the pace deadline);
	// drainOwed gives the role to whoever ends the event in hand (takeDrain).
	paceAt    vclock.Deadline
	sweepAt   vclock.Deadline
	kaAt      vclock.Deadline
	ackAt     vclock.Deadline
	nextSend  time.Time
	paceArmed bool
	drainOwed bool
	soonest   vclock.Deadline // the earliest deadline set since the driver took it (takeSoonest)

	// Acknowledgements owed (header.go, "Acknowledgements"): the ranges, the
	// send stamp and arrival of the newest data frame among them (the echo,
	// and what the hold is measured from), and when the oldest was filed. At
	// ackAt they leave as a pure ack if nothing rode in time; a ride leaves
	// ackAt set. ackBuf backs the block riding the frame poll encodes.
	owed      [MaxAckRanges]AckRange
	owedN     int
	owedEcho  uint64
	owedAt    time.Time
	owedSince time.Time
	ackBuf    [maxAckBlockLen]byte

	seqScratch []int64 // gap lists

	// The peer's sending rate: wire bits of new data frames since arrStart,
	// handed to the controller by the first arrival core.BaseRTTFloor later.
	arrStart time.Time
	arrBits  int

	// rtt is what everything that times the network reads: the controller's
	// own on a plain conn; on a multipath client, pathRTT of the raw
	// samples, while the controller is fed each rebased onto its path.
	rtt     *core.RTT
	pathRTT core.RTT

	paths *pathTable // nil on a single-path conn

	acksSent        int64 // pure-ack datagrams owed
	acksPiggybacked int64 // acknowledgement blocks that rode a data frame
	authFailures    int64
	lostFrames      int64 // transmissions declared lost (gap, nack or sweep)
	reconnects      int64 // re-binds to a fresh transport (rebind)

	// Smoothed per-transmission loss rate (0 per delivery, 1 per loss): the
	// measured input of the §VI-C FEC sizing rule.
	lossRate  float64
	lossKnown bool
}

// wpending is the bookkeeping record of one reliable frame awaiting
// acknowledgment, held by value in its stream's send window (sendwindow.go);
// its payload buffer's ownership is pool.go's.
type wpending struct {
	pbuf     *[]byte // the payload, in a pooled buffer
	deadline time.Time
	lastSent time.Time
	retx     int
	queued   bool
	path     uint8  // the path the last transmission took
	traceID  uint64 // retransmissions carry the original's trace context
	spanID   uint64
}

type wstream struct {
	spec      StreamSpec
	nextSeq   int64
	allocated float64
	tokens    float64
	lastFill  time.Time

	window   sendWindow // the reliable frames awaiting acknowledgment
	maxAcked int64

	// recv is the receive side: which of the last recvWindow sequences
	// arrived and which holes were NACKed. runStart is where the run of
	// consecutively received sequences ending at recv.Next()-1 began (or
	// later): a gap resets it, a hole filled just below it moves it back.
	recv     core.SeqWindow
	runStart int64

	sent  int64 // stats
	shed  int64
	retx  int64
	recvd int64
	dups  int64
}

type outFrame struct {
	hdr  Header
	pbuf *[]byte // the payload, in a pooled buffer
}

// frameQueue is a FIFO of queued frames that reuses its backing array: a
// pop advances a head index, and compacts once the dead head outgrows the
// live half, so a queue that never fully drains is still bounded by its
// backlog high-water mark and a steady state allocates nothing.
type frameQueue struct {
	buf  []outFrame
	head int
}

func (q *frameQueue) empty() bool { return q.head >= len(q.buf) }

func (q *frameQueue) push(f outFrame) { q.buf = append(q.buf, f) }

func (q *frameQueue) pop() outFrame {
	f := q.buf[q.head]
	q.buf[q.head] = outFrame{} // drop buffer refs so the pool owns them alone
	if q.head++; q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:]) // stale tail copies must not pin pooled buffers
		q.buf = q.buf[:n]
		q.head = 0
	}
	return f
}

func newStream(spec StreamSpec, now time.Time) *wstream {
	return &wstream{
		spec:     spec,
		lastFill: now,
		maxAcked: -1,
		recv:     core.NewSeqWindow(recvWindow),
	}
}

const (
	// recvWindow is how many sequences back a stream remembers (DESIGN.md
	// §3: seconds of traffic, far beyond any frame still inside a 75 ms
	// deadline); a frame older than that is dropped as a duplicate.
	recvWindow    = 2048
	sweepInterval = 50 * time.Millisecond // the retransmit sweep (tail-loss probe) period
	maxAckDelay   = 25 * time.Millisecond // cap on an ack's wait for a ride, whatever SRTT says
	rejoinLimit   = 64                    // how far back a filled hole re-joins the newest run
	keepaliveMiss = 3                     // silent probe intervals that mean the peer is dead
)

// init applies cfg's defaults and builds the protocol state of a conn
// created at now, on a clock of timer floor grain whose Sequencer, if it
// has one, is seq.
func (c *connCore) init(cfg Config, now time.Time, grain time.Duration, seq vclock.Sequencer) error {
	var sl *sealer
	if cfg.Key != nil {
		var err error
		if sl, err = newSealer(cfg.Key); err != nil {
			return err
		}
	}
	if cfg.StartBudget <= 0 {
		cfg.StartBudget = 1e6
	}
	if cfg.RetxLimit <= 0 {
		cfg.RetxLimit = 3
	}
	*c = connCore{
		epoch:       now,
		grain:       grain,
		seq:         seq,
		retxLimit:   cfg.RetxLimit,
		keepalive:   cfg.Keepalive,
		startBudget: cfg.StartBudget,
		rec:         cfg.Recorder,
		sealer:      sl,
		state:       StateActive,
		lastHeard:   now,
		nextSend:    now,
	}
	for _, spec := range cfg.Streams {
		st := newStream(spec, now)
		st.tokens = 4 * 1500 // initial burst credit
		c.addStream(st)
	}
	c.newController()
	return nil
}

// newController gives the conn a controller at the start budget, and its
// RTT, and shares the budget out.
func (c *connCore) newController() {
	c.ctrl = core.NewController(c.startBudget)
	c.rtt = c.ctrl.RTT()
	c.ctrl.SetOnChange(c.reallocate)
	c.reallocate()
}

// rebind restarts the conn on a fresh transport at now (Conn.rebind), as
// RFC 9000 §9.4 has a migrated connection do: what measured the old path
// (controller, core.RTT, loss EWMA, the peer's arrival rate) and what
// belonged to the peer's conn behind it (receive windows, acks owed) start
// afresh, and the sending streams keep their sequence numbers. Their
// queued and unacked frames go: that peer conn may have delivered one
// whose ack died, and the fresh transport meets a new conn (a Mux keys
// them by source address) whose duplicate filter never saw it. Delivery
// across a re-bind is at most once. The silence clock restarts: an outage
// re-binds every keepaliveMiss intervals.
func (c *connCore) rebind(now time.Time) {
	c.reconnects++
	c.rec.RecordAt(now, obs.EvSessionReset, 0, 0, uint32(c.reconnects), 0)
	c.lastHeard = now
	c.newController()
	c.lossRate, c.lossKnown = 0, false
	c.arrStart, c.arrBits = time.Time{}, 0
	c.owedN, c.ackAt = 0, vclock.Deadline{}
	for b := range c.bands {
		for q := &c.bands[b]; !q.empty(); {
			f, pp := q.pop(), (*wpending)(nil)
			if st := c.stream(f.hdr.Stream); st != nil {
				pp = st.window.get(f.hdr.Seq)
			}
			if pp == nil { // best effort, or acked while queued: the band held the last reference
				putPayloadBuf(f.pbuf)
			} else {
				pp.queued = false // the window's now, freed below
			}
		}
	}
	for _, st := range c.streams {
		st.recv, st.runStart = core.NewSeqWindow(recvWindow), 0
		for seq, ok := st.window.first(); ok; seq, ok = st.window.first() {
			c.removePending(st, seq, st.window.get(seq))
		}
	}
}

// start sets the first keepalive deadline and a multipath client's first
// probe round (no sweep until a frame is sent).
func (c *connCore) start(now time.Time) {
	if c.keepalive > 0 {
		c.set(&c.kaAt, now.Add(c.keepalive))
	}
	if c.paths != nil && c.paths.client {
		c.set(&c.paths.probeAt, now.Add(probeInterval))
	}
}

func (c *connCore) closed() bool { return c.state == StateClosed }

// close clears every deadline and gives the queued frames no transmitter;
// it reports false if the conn was closed already.
func (c *connCore) close() bool {
	if c.closed() {
		return false
	}
	c.state = StateClosed
	var none vclock.Deadline
	c.paceAt, c.sweepAt, c.kaAt, c.ackAt = none, none, none, none
	c.paceArmed = false
	if c.paths != nil {
		c.paths.probeAt, c.paths.flushAt = none, none
		c.paths.rx.drain() // every open group's holes are counted now
	}
	return true
}

// stream finds a stream by id (nil when unknown).
func (c *connCore) stream(id uint16) *wstream {
	if i, ok := c.streamIndex(id); ok {
		return c.streams[i]
	}
	return nil
}

func (c *connCore) streamIndex(id uint16) (int, bool) {
	return slices.BinarySearchFunc(c.streams, id, func(st *wstream, id uint16) int {
		return int(st.spec.ID) - int(id)
	})
}

// addStream files a stream at its place in id order (replacing a stream
// declared twice, as the map this slice replaced did).
func (c *connCore) addStream(st *wstream) {
	i, ok := c.streamIndex(st.spec.ID)
	if ok {
		c.streams[i] = st
		return
	}
	c.streams = slices.Insert(c.streams, i, st)
}

// set sets *d to at, in the place of a timer armed now.
func (c *connCore) set(d *vclock.Deadline, at time.Time) {
	if *d = vclock.NewDeadline(c.seq, at); d.Before(c.soonest) {
		c.soonest = *d
	}
}

// takeSoonest is the earliest deadline set since the driver last asked.
func (c *connCore) takeSoonest() vclock.Deadline {
	d := c.soonest
	c.soonest = vclock.Deadline{}
	return d
}

// rearm offers the driver the earliest deadline left, as if just set: the
// alarm that served the others has fired.
func (c *connCore) rearm() { c.soonest = c.nextDeadline() }

// nextDeadline is the earliest deadline set, zero when there is none.
func (c *connCore) nextDeadline() vclock.Deadline {
	next := c.ackAt
	for _, d := range [...]vclock.Deadline{c.kaAt, c.sweepAt, c.paceAt} {
		if d.Before(next) {
			next = d
		}
	}
	if p := c.paths; p != nil {
		for _, d := range [...]vclock.Deadline{p.probeAt, p.flushAt} {
			if d.Before(next) {
				next = d
			}
		}
	}
	return next
}

// probe is the alarm's first step: a keepalive that is due sets the next
// and owes a ping. It reports the silence verdict, keepaliveMiss intervals
// with nothing heard (a dialed conn re-binds on it), and the flip to dead
// the verdict brings an active peer (Section VI: what degrades gracefully
// instead of tearing the session down).
func (c *connCore) probe(now time.Time, due vclock.Deadline) (ping, silent, dead bool) {
	if due.Before(c.kaAt) {
		return false, false, false
	}
	c.set(&c.kaAt, now.Add(c.keepalive))
	silent = now.Sub(c.lastHeard) >= keepaliveMiss*c.keepalive
	if dead = silent && c.state == StateActive; dead {
		c.state = StateDead
	}
	c.oweControl(now, Header{Type: TypePing, SendMicro: uint64(now.Sub(c.epoch).Microseconds())}, nil)
	return true, silent, dead
}

// onDeadline is the alarm's second step. The sweep retransmits reliable
// tail losses that produce no gap signal, walking each stream's send window
// in sequence order, and sweeps again only while a window holds a frame;
// it allocates nothing. A pace deadline owes a drain.
func (c *connCore) onDeadline(now time.Time, due vclock.Deadline) {
	if !due.Before(c.sweepAt) {
		stale := max(2*c.rtt.Smoothed(), 100*time.Millisecond)
		c.sweepAt = vclock.Deadline{}
		for _, st := range c.streams {
			for seq, ok := st.window.first(); ok; {
				next, more := st.window.after(seq) // before onLost may retire seq
				if pp := st.window.get(seq); !pp.queued && !pp.lastSent.IsZero() && now.Sub(pp.lastSent) >= stale {
					c.onLost(st, seq, pp, now)
				}
				seq, ok = next, more
			}
			if st.window.len() > 0 && c.sweepAt.At.IsZero() {
				c.set(&c.sweepAt, now.Add(sweepInterval))
			}
		}
	}
	if !due.Before(c.paceAt) { // the gap is over
		c.paceAt = vclock.Deadline{}
		c.drainOwed = true
	}
}

// ackDue is the alarm's last step, after the pacer could carry them: acks
// owed long enough leave alone, and it reports owing that pure ack; those
// filed after a ride wait out the rest.
func (c *connCore) ackDue(now time.Time, due vclock.Deadline) bool {
	if due.Before(c.ackAt) {
		return false
	}
	c.ackAt = vclock.Deadline{}
	switch wait := c.ackDelay() - now.Sub(c.owedSince); {
	case c.owedN == 0: // a ride took them
	case wait > 0:
		c.set(&c.ackAt, now.Add(max(wait, c.grain)))
	default:
		c.flushAcks(now)
		return true
	}
	return false
}

// takeDrain hands the caller the transmitter role if the event owed it.
func (c *connCore) takeDrain() bool {
	owed := c.drainOwed
	c.drainOwed = false
	return owed
}

// reallocate shares the budget out by priority, in id order within one
// (the controller's OnChange hook, fired from OnAck and OnLoss).
func (c *connCore) reallocate() {
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
				if st.spec.OnAllocate != nil { // a rate setter: called under the driver's mutex
					st.spec.OnAllocate(alloc)
				}
			}
		}
	}
}

// send admits one application datagram on a stream at now: it reports
// whether the datagram was admitted (false = shed by graceful degradation)
// and errors only on misuse or a closed conn.
func (c *connCore) send(now time.Time, streamID uint16, payload []byte, traceID, spanID uint64) (bool, error) {
	if c.closed() {
		return false, ErrClosed
	}
	st := c.stream(streamID)
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
	// The private copy's ownership follows the frame: pool.go.
	_, pbuf := getPayloadBuf(payload)
	if st.spec.Class != core.ClassFullBestEffort {
		p := wpending{pbuf: pbuf, queued: true, traceID: traceID, spanID: spanID}
		if st.spec.Deadline > 0 {
			p.deadline = now.Add(st.spec.Deadline)
		}
		st.window.put(seq, p)
		if c.sweepAt.At.IsZero() {
			// Sweeps resume on their epoch + k·sweepInterval grid, at the
			// first point more than a granule away.
			since := now.Add(c.grain).Sub(c.epoch)
			c.set(&c.sweepAt, now.Add(c.grain+sweepInterval-since%sweepInterval))
		}
	}
	c.enqueue(st, seq, pbuf, traceID, spanID)
	return true, nil
}

func (c *connCore) enqueue(st *wstream, seq int64, pbuf *[]byte, traceID, spanID uint64) {
	hdr := Header{Type: TypeData, Stream: st.spec.ID, Class: uint8(st.spec.Class), Prio: uint8(st.spec.Priority),
		Seq: seq, TraceID: traceID, SpanID: spanID}
	c.bands[st.spec.Priority.Band()].push(outFrame{hdr: hdr, pbuf: pbuf})
	// The frame needs a transmitter: the queue's, or whoever ends the event
	// in hand. Whether there is a gap to wait out is poll's decision.
	if !c.paceArmed {
		c.paceArmed, c.drainOwed = true, true
	}
}

// paceDue reports whether the head of the queue may leave at now: nextSend
// is within one clock granule, sent early as debt nextSend carries, so no
// timer times what the clock cannot (44 µs on the system clock is a 1 ms
// sleep). Otherwise it is the one place the pace deadline is set.
func (c *connCore) paceDue(now time.Time) bool {
	c.paceAt = vclock.Deadline{}
	c.paceArmed = !c.closed() && !c.emptyBands()
	if !c.paceArmed {
		return false
	}
	if c.nextSend.Sub(now) <= c.grain {
		return true
	}
	c.set(&c.paceAt, c.nextSend)
	return false
}

// poll, the transmitter's, encodes the frame due at now into dst, with the
// path it takes, or reports false having set the pace deadline or given the
// role up. A frame the encoder refuses is left to loss recovery, like a
// dropped datagram.
func (c *connCore) poll(now time.Time, dst []byte) ([]byte, int, bool) {
	for c.paceDue(now) {
		f, pp := c.pop(now)
		frame, err := c.encode(dst, f.hdr, *f.pbuf)
		if pp == nil { // best-effort, or acked while queued: the band held the last reference
			putPayloadBuf(f.pbuf)
		}
		if err == nil {
			return frame, int(f.hdr.Path), true
		}
	}
	return nil, 0, false
}

// pop takes the head of the highest non-empty band, stamps it with now,
// lets everything owed ride it, puts it on its path and advances nextSend
// by its budget gap. pp is its pending record: nil for best effort or a
// sequence already acked.
func (c *connCore) pop(now time.Time) (f outFrame, pp *wpending) {
	for b := range c.bands {
		if !c.bands[b].empty() {
			f = c.bands[b].pop()
			break
		}
	}
	f.hdr.SendMicro = uint64(now.Sub(c.epoch).Microseconds())
	if c.owedN > 0 {
		f.hdr.Acks = c.takeAcks(c.ackBuf[:0], now)
		c.acksPiggybacked++
	}
	path := 0
	if p := c.paths; p != nil {
		path = p.pick(&f.hdr, now)
		f.hdr.Session, f.hdr.Path = p.session, uint8(path)
		c.group(&f.hdr, *f.pbuf, path, now)
		if p.client {
			p.stamp(f.hdr.SendMicro, path)
		}
	}
	if st := c.stream(f.hdr.Stream); st != nil {
		if pp = st.window.get(f.hdr.Seq); pp != nil {
			pp.queued = false
			pp.lastSent = now
			pp.path = uint8(path)
		}
		st.sent++
	}
	wireLen := headerLen(f.hdr) + len(*f.pbuf)
	if c.sealer != nil {
		wireLen += sealedOver
	}
	if c.paths != nil {
		c.paths.charge(path, wireLen)
	}
	if pp != nil && pp.retx > 0 {
		c.rec.RecordAt(now, obs.EvFrameRetransmit, uint8(pp.retx), f.hdr.Stream, uint32(f.hdr.Seq), uint64(wireLen))
	} else {
		c.rec.RecordAt(now, obs.EvFrameSend, 0, f.hdr.Stream, uint32(f.hdr.Seq), uint64(wireLen))
	}
	gap := time.Duration(float64(wireLen*8) / max(c.ctrl.Budget(), 1) * float64(time.Second))
	if now.After(c.nextSend) {
		c.nextSend = now // idle time earns no credit; time sent early stays owed
	}
	c.nextSend = c.nextSend.Add(gap)
	return f, pp
}

// oweControl owes the peer one control datagram, encoded at now. On a
// multipath conn it takes h's path when h names one (a probe, the answer
// to one, parity), else the best path.
func (c *connCore) oweControl(now time.Time, h Header, payload []byte) {
	if p := c.paths; p != nil && h.Session == 0 {
		h.Session, h.Path = p.session, uint8(p.best(-1, now))
	}
	n := len(c.ctl)
	frame, err := c.encode(append(c.ctl, 0, 0, h.Path), h, payload)
	if err != nil {
		c.ctl = c.ctl[:n]
		return
	}
	binary.LittleEndian.PutUint16(frame[n:], uint16(len(frame)-n-3))
	c.ctl = frame
	if c.paths != nil {
		c.paths.charge(int(h.Path), len(frame)-n-3)
	}
}

// pollControl copies the oldest control datagram owed into dst, with the
// path it takes, and reports false when nothing is owed.
func (c *connCore) pollControl(dst []byte) ([]byte, int, bool) {
	return popDatagram(&c.ctl, &c.ctlHead, dst)
}

// popDatagram copies the oldest datagram of the queue q, each encoded
// behind its length and path, into dst; *head is where it starts.
func popDatagram(q *[]byte, head *int, dst []byte) ([]byte, int, bool) {
	if *head == len(*q) {
		return nil, 0, false
	}
	at := *head + 3
	path := int((*q)[at-1])
	*head = at + int(binary.LittleEndian.Uint16((*q)[at-3:]))
	frame := append(dst, (*q)[at:*head]...)
	if *head == len(*q) {
		*q, *head = (*q)[:0], 0
	}
	return frame, path, true
}

// encode serializes (and seals, when a key is configured) one frame into
// dst: the driver's pooled buffer, or ctl.
func (c *connCore) encode(dst []byte, h Header, payload []byte) ([]byte, error) {
	if c.sealer != nil {
		return c.sealer.appendSealedFrame(dst, h, payload)
	}
	return AppendFrame(dst, h, payload)
}

func (c *connCore) emptyBands() bool {
	for b := range c.bands {
		if !c.bands[b].empty() {
			return false
		}
	}
	return true
}

// onDatagram processes one authenticated datagram of wireLen bytes arriving
// at now: its acknowledgement block, whatever the type, then the frame. It
// returns a fresh data frame for delivery (the driver fills in Conn) and
// whether it revived a dead peer; backlog is the reader's.
func (c *connCore) onDatagram(now time.Time, hdr *Header, payload []byte, wireLen, backlog int) (m Message, deliver, revived bool) {
	c.lastHeard = now
	if c.state == StateDead {
		c.state = StateActive
		revived = true
	}
	if len(hdr.Acks) > 0 {
		c.onAcks(hdr.Acks, now)
	}
	switch hdr.Type {
	case TypeData:
		if c.onData(hdr, wireLen, now) { // no copy: OnMessage is lent the driver's loan
			m = Message{Stream: hdr.Stream, Payload: payload, TraceID: hdr.TraceID, SpanID: hdr.SpanID, Backlog: backlog}
			deliver = true
		}
	case TypeNack:
		c.onNack(hdr, payload, now)
	case TypePing: // answered on the path it came by
		c.oweControl(now, Header{Type: TypePong, SendMicro: hdr.SendMicro, Session: hdr.Session, Path: hdr.Path}, nil)
	} // an ack's block and a pong's liveness are done above
	return m, deliver, revived
}

// onData files one data frame — its ack owed, as a pure ack at once when it
// cannot wait, the holes it jumped over NACKed — and reports whether it is
// new, to be delivered.
func (c *connCore) onData(hdr *Header, wireLen int, now time.Time) bool {
	st := c.stream(hdr.Stream)
	if st == nil {
		// A stream the peer declared alone: one-directional setups work.
		st = newStream(StreamSpec{ID: hdr.Stream, Class: core.Class(hdr.Class), Priority: core.Priority(hdr.Prio)}, now)
		c.addStream(st)
	}
	expected := st.recv.Next()
	fresh := st.recv.Mark(hdr.Seq)
	// The ack names the frame alone, or the whole run the frame is part of.
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
	c.oweAck(ack, hdr.SendMicro, now)
	switch {
	case !fresh || hdr.Seq != expected || c.rtt.Smoothed() == 0 || c.owedN == MaxAckRanges:
		// A duplicate, an arrival out of order (the peer's loss detection
		// is waiting on it), a peer we cannot time a delay for, or no room
		// to owe more. The ack leaves before any NACK and before delivery.
		c.flushAcks(now)
	case c.ackAt.At.IsZero():
		c.set(&c.ackAt, now.Add(c.ackDelay()))
	}
	if !fresh {
		st.dups++
		return false
	}
	st.recvd++
	c.observeArrival(wireLen, now)

	// Reliable classes NACK the holes jumped over the window still holds.
	if core.Class(hdr.Class) != core.ClassFullBestEffort && hdr.Seq > expected {
		missing := c.seqScratch[:0]
		for s := max(expected, st.recv.Floor()); s < hdr.Seq && len(missing) < 64; s++ {
			if st.recv.Nack(s) {
				missing = append(missing, s)
			}
		}
		c.seqScratch = missing[:0]
		if len(missing) > 0 {
			c.oweNack(now, hdr.Stream, missing)
		}
	}
	return true
}

// oweNack owes NACKs of stream's missing sequences, chunked so no payload
// exceeds MaxPayload (the peer's decoder would drop the whole signal).
func (c *connCore) oweNack(now time.Time, stream uint16, missing []int64) {
	for len(missing) > 0 {
		n := min(len(missing), MaxNackEntries)
		buf, pb := getPayloadBuf(nil)
		c.oweControl(now, Header{Type: TypeNack, Stream: stream}, AppendNackPayload(buf, missing[:n]))
		putPayloadBuf(pb)
		missing = missing[n:]
	}
}

// oweAck files one acknowledgement. A range that overlaps or abuts one
// already owed on its stream — an in-order arrival's run and the one its
// predecessor filed — is merged into it.
func (c *connCore) oweAck(r AckRange, sendMicro uint64, now time.Time) {
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

// takeAcks encodes everything owed into dst as the block of a frame
// leaving at now, and owes nothing any more.
func (c *connCore) takeAcks(dst []byte, now time.Time) AckBlock {
	b := AppendAckBlock(dst, c.owedEcho, now.Sub(c.owedAt), c.owed[:c.owedN])
	c.owedN = 0
	return b
}

// flushAcks owes everything owed as one pure ack. Owed acks always leave
// together, so none overtakes an earlier one.
func (c *connCore) flushAcks(now time.Time) {
	c.oweControl(now, Header{Type: TypeAck, Acks: c.takeAcks(c.ackBuf[:0], now)}, nil)
	c.acksSent++
}

// ackDelay is how long an acknowledgement may wait for a ride: a quarter of
// the round trip, so the peer's estimate of when it should have heard moves
// by little, but no less than the clock can time.
func (c *connCore) ackDelay() time.Duration {
	return min(max(c.rtt.Smoothed()/4, c.grain), maxAckDelay)
}

// observeArrival accounts one new (not duplicate) data frame toward the
// peer's sending rate and, when the window is old enough, closes it.
func (c *connCore) observeArrival(wireLen int, now time.Time) {
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

// removePending retires a reliable frame's record, and its payload buffer
// unless a band entry holds that: a write in flight reads the copy poll
// encoded (pool.go). pp is seq's record in the window.
func (c *connCore) removePending(st *wstream, seq int64, pp *wpending) {
	if !pp.queued {
		putPayloadBuf(pp.pbuf)
	}
	st.window.remove(seq)
}

// onAcks processes an arriving acknowledgement block: one RTT sample, the
// hold subtracted, and per stream one walk of the send window, in sequence
// order and no further than the newest sequence acknowledged, that retires
// what a range covers and declares lost what lies more than the reorder
// slack behind that sequence.
func (c *connCore) onAcks(b AckBlock, now time.Time) {
	at := now.Sub(c.epoch)
	rtt := at - time.Duration(b.Echo())*time.Microsecond - b.Hold()
	if rtt > 0 {
		delay := rtt
		if c.paths != nil && c.paths.client {
			c.rtt.Update(rtt)
			delay = c.paths.rebase(rtt, b.Echo())
		}
		c.ctrl.OnAck(at, delay)
	}
	const reorderSlack = 3
	for i, n := 0, b.Len(); i < n; i++ {
		r := b.Range(i)
		st := c.stream(r.Stream)
		if st == nil {
			continue
		}
		st.maxAcked = max(st.maxAcked, r.First+int64(r.Run)-1)
		if i+1 < n && b.Range(i+1).Stream == r.Stream {
			continue // the pass runs once per stream, after its last range
		}
		for seq, ok := st.window.first(); ok && seq <= st.maxAcked; {
			next, more := st.window.after(seq) // before either verdict retires seq
			switch pp := st.window.get(seq); {
			case b.Covers(r.Stream, seq):
				c.lossSample(0)
				c.rec.RecordAt(now, obs.EvFrameAck, 0, r.Stream, uint32(seq), uint64(rtt.Microseconds()))
				if c.paths != nil {
					c.paths.credit(pp.path, HeaderLen+len(*pp.pbuf))
				}
				c.removePending(st, seq, pp)
			case seq < st.maxAcked-reorderSlack && c.lossEligible(pp, now):
				c.onLost(st, seq, pp, now)
			}
			seq, ok = next, more
		}
	}
}

// onNack declares lost each sequence a NACK lists that is in the window
// and eligible, reading the payload in place.
func (c *connCore) onNack(hdr *Header, payload []byte, now time.Time) {
	n, err := nackLen(payload)
	if err != nil {
		return
	}
	st := c.stream(hdr.Stream)
	if st == nil {
		return
	}
	for i := 0; i < n; i++ {
		seq := nackEntry(payload, i)
		if pp := st.window.get(seq); pp != nil && c.lossEligible(pp, now) {
			c.onLost(st, seq, pp, now)
		}
	}
}

func (c *connCore) lossEligible(pp *wpending, now time.Time) bool {
	return !pp.queued && !pp.lastSent.IsZero() && now.Sub(pp.lastSent) >= max(c.rtt.Smoothed(), 5*time.Millisecond)
}

// lossSample folds one verdict (0 delivered, 1 lost) into the loss rate,
// with a gain of 1/16: it rides out single bursts while still tracking a
// Gilbert–Elliott bad state within a handful of frames.
func (c *connCore) lossSample(lost float64) {
	if !c.lossKnown {
		c.lossRate, c.lossKnown = lost, true
		return
	}
	c.lossRate += (lost - c.lossRate) / 16
}

// onLost acts on one loss verdict reached at the caller's now.
func (c *connCore) onLost(st *wstream, seq int64, pp *wpending, now time.Time) {
	c.lossSample(1)
	c.lostFrames++
	c.rec.RecordAt(now, obs.EvFrameLost, uint8(pp.retx), st.spec.ID, uint32(seq), 0)
	c.ctrl.OnLoss(now.Sub(c.epoch), !st.spec.Priority.Discardable())
	if seq <= st.maxAcked-recvWindow {
		// The peer's receive window has passed seq: it would drop a copy as
		// a duplicate, so none is sent. An ack names at most that window,
		// so a reader that lags the peer's acks by more (the kernel drops
		// the rest) finds the frames just past it uncovered.
		c.removePending(st, seq, pp)
		return
	}
	if st.spec.Class == core.ClassLossRecovery {
		affordable := pp.deadline.IsZero() ||
			(c.rtt.Smoothed() > 0 && now.Add(c.rtt.Smoothed()/2).Before(pp.deadline))
		if !affordable || pp.retx >= c.retxLimit {
			c.removePending(st, seq, pp)
			return
		}
	}
	if st.spec.Class == core.ClassCritical && pp.retx >= c.retxLimit*4 {
		c.removePending(st, seq, pp)
		return
	}
	pp.retx++
	pp.queued = true
	st.retx++
	c.enqueue(st, seq, pp.pbuf, pp.traceID, pp.spanID)
}

// snapshot is the one place a StreamStats is made of a stream's counters.
func (st *wstream) snapshot() StreamStats {
	return StreamStats{
		Sent: st.sent, Shed: st.shed, Retx: st.retx,
		Received: st.recvd, Duplicates: st.dups,
		Allocated: st.allocated,
	}
}
