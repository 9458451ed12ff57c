package wire

import (
	"bytes"
	"net"
	"testing"
	"time"

	"marnet/internal/vclock"
)

// coreNet is a second driver of connCore, for the tests and the fuzzer: no
// lock, no socket and no clock of its own. It joins cores through an
// in-memory pipe on synthetic time and drives each the way Conn does, in
// the same order of writes and deliveries — for a datagram the control
// datagrams it owed, the delivery, then the drain; for an alarm the probe,
// the sweep and the pacer, then the acks — and with the same alarm: armed
// for the earliest deadline only when that comes before the armed one, and
// firing even when what it was armed for was cleared. Time moves only in
// run, from one event to the next: a datagram's arrival, an action a test
// scheduled, or an end's alarm.
type coreNet struct {
	now   time.Time
	delay time.Duration // one way
	// fate, when set, decides each datagram written: how many copies arrive
	// (0 drops it) and how much later than delay.
	fate func(from *coreEnd, frame []byte) (copies int, extra time.Duration)
	// arrive, when set, sees each datagram as it reaches an end.
	arrive func(to *coreEnd, frame []byte)
	events []netEvent
	seq    int
	ends   []*coreEnd
}

// netEvent is a datagram arriving at to, or an action (fn).
type netEvent struct {
	at    time.Time
	seq   int
	to    *coreEnd
	frame []byte
	fn    func()
}

// coreEnd is one core on a coreNet and what its driver saw: every datagram
// it wrote and when, and the delay of every arm of its alarm.
type coreEnd struct {
	net       *coreNet
	peer      *coreEnd // nil: what the end writes goes nowhere
	core      connCore
	buf       []byte
	alarmAt   vclock.Deadline
	arms      []time.Duration
	written   [][]byte
	writtenAt []time.Time
	onMessage func(Message)
	notes     []pathNote // the path transitions the core reported, in order
}

func newCoreNet(delay time.Duration) *coreNet {
	return &coreNet{now: time.Unix(1_000_000, 0), delay: delay}
}

// end adds a core built from cfg at the current instant, on a clock with no
// timer floor and no Sequencer.
func (n *coreNet) end(cfg Config) *coreEnd {
	e := &coreEnd{net: n, buf: make([]byte, 0, maxFrameLen)}
	if err := e.core.init(cfg, n.now, 0, nil); err != nil {
		panic(err)
	}
	if cfg.Keepalive > 0 {
		e.core.start(n.now)
		e.unlock()
	}
	n.ends = append(n.ends, e)
	return e
}

// dialPaths makes e a multipath client over paths path0, path1, ... (as
// DialPaths does), with its first probe round due a probe interval from
// now.
func (e *coreEnd) dialPaths(paths int, opts PathOptions) {
	names := make([]PathConf, paths)
	for i := range names {
		names[i].Name = "path" + string(rune('0'+i))
	}
	t, err := newClientPaths(names, opts)
	if err != nil {
		panic(err)
	}
	e.core.paths, e.core.rtt = t, &e.core.pathRTT
	e.core.start(e.net.now)
	e.unlock()
}

// pathAddr stands for the address a frame on path arrives from: the pipe
// has one per path.
func pathAddr(path uint8) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 1000 + int(path)}
}

// pair adds two cores joined by the pipe.
func (n *coreNet) pair(a, b Config) (*coreEnd, *coreEnd) {
	ea, eb := n.end(a), n.end(b)
	ea.peer, eb.peer = eb, ea
	return ea, eb
}

// after schedules fn d from now.
func (n *coreNet) after(d time.Duration, fn func()) {
	n.push(netEvent{at: n.now.Add(d), fn: fn})
}

func (n *coreNet) push(ev netEvent) {
	ev.seq = n.seq
	n.seq++
	n.events = append(n.events, ev)
}

// run moves time forward by d, running every event due on the way at its
// own instant: arrivals and actions in the order they were scheduled, then
// the alarms of that instant in the order the ends were added.
func (n *coreNet) run(d time.Duration) {
	until := n.now.Add(d)
	for {
		next := -1
		for i, ev := range n.events {
			if !ev.at.After(until) && (next < 0 || ev.at.Before(n.events[next].at) ||
				ev.at.Equal(n.events[next].at) && ev.seq < n.events[next].seq) {
				next = i
			}
		}
		var alarm *coreEnd
		for _, e := range n.ends {
			at := e.alarmAt.At
			if at.IsZero() || at.After(until) || next >= 0 && !at.Before(n.events[next].at) {
				continue
			}
			if alarm == nil || at.Before(alarm.alarmAt.At) {
				alarm = e
			}
		}
		switch {
		case alarm != nil:
			n.now = alarm.alarmAt.At
			alarm.fire()
		case next >= 0:
			ev := n.events[next]
			n.events = append(n.events[:next], n.events[next+1:]...)
			n.now = ev.at
			switch {
			case ev.fn != nil:
				ev.fn()
			case n.arrive != nil:
				n.arrive(ev.to, ev.frame)
				fallthrough
			default:
				ev.to.receive(ev.frame)
			}
		default:
			n.now = until
			return
		}
	}
}

// unlock is Conn.unlock: the alarm is re-armed when the core's next
// deadline comes before the one it is armed for.
func (e *coreEnd) unlock() {
	if next := e.core.takeSoonest(); !e.core.closed() && next.Before(e.alarmAt) {
		e.alarmAt = next
		e.arms = append(e.arms, next.At.Sub(e.net.now))
	}
}

func (e *coreEnd) unlockAndDrain() {
	owed := e.core.takeDrain()
	e.unlock()
	if owed {
		for {
			frame, _, ok := e.core.poll(e.net.now, e.buf[:0])
			e.unlock()
			if !ok {
				return
			}
			e.write(frame)
			e.writeControl()
		}
	}
}

func (e *coreEnd) writeControl() {
	for frame, _, ok := e.core.pollControl(e.buf[:0]); ok; frame, _, ok = e.core.pollControl(e.buf[:0]) {
		e.write(frame)
	}
}

// send is Conn.Send.
func (e *coreEnd) send(stream uint16, payload []byte) (bool, error) {
	ok, err := e.core.send(e.net.now, stream, payload, 0, 0)
	e.unlockAndDrain()
	return ok, err
}

// receive is Conn.handleDatagram for an unsealed datagram, and the frames
// FEC regenerates from it.
func (e *coreEnd) receive(frame []byte) {
	hdr, payload, err := DecodeFrame(frame)
	if err != nil || e.core.closed() {
		return
	}
	var m Message
	deliver := false
	if hdr.Session == 0 || e.core.onPath(e.net.now, &hdr, payload, pathAddr(hdr.Path)) {
		m, deliver, _ = e.core.onDatagram(e.net.now, &hdr, payload, len(frame), 0)
	}
	e.takeNotes()
	e.unlock()
	e.writeControl()
	if deliver && e.onMessage != nil {
		e.onMessage(m)
	}
	e.unlockAndDrain()
	for e.core.paths != nil {
		repaired, _, ok := popDatagram(&e.core.paths.repaired, &e.core.paths.repairedHead, nil)
		if !ok {
			return
		}
		e.receive(repaired)
	}
}

// takeNotes keeps the path transitions the core reported.
func (e *coreEnd) takeNotes() {
	if e.core.paths != nil {
		e.notes = append(e.notes, e.core.paths.takeNotes()...)
	}
}

// fire is Conn.onDeadline.
func (e *coreEnd) fire() {
	due := vclock.Deadline{At: e.net.now, Stamp: e.alarmAt.Stamp}
	e.core.probe(e.net.now, due)
	e.core.probePaths(e.net.now, due)
	e.takeNotes()
	e.writeControl()
	e.core.onDeadline(e.net.now, due)
	e.unlockAndDrain()
	e.core.ackDue(e.net.now, due)
	e.alarmAt = vclock.Deadline{}
	e.core.rearm()
	e.unlock()
	e.writeControl()
}

// write records a datagram and, over a pipe, sends it on its way.
func (e *coreEnd) write(frame []byte) {
	cp := bytes.Clone(frame)
	e.written = append(e.written, cp)
	e.writtenAt = append(e.writtenAt, e.net.now)
	if e.peer == nil {
		return
	}
	copies, extra := 1, time.Duration(0)
	if e.net.fate != nil {
		copies, extra = e.net.fate(e, cp)
	}
	for i := 0; i < copies; i++ {
		e.net.push(netEvent{at: e.net.now.Add(e.net.delay + extra), to: e.peer, frame: cp})
	}
}

// coreSend sends on e and fails t if the datagram is refused.
func coreSend(t testing.TB, e *coreEnd, stream uint16, payload []byte) {
	t.Helper()
	if ok, err := e.send(stream, payload); err != nil || !ok {
		t.Fatal("send refused", err)
	}
}

// pureAcks counts the pure acks among frames.
func pureAcks(frames [][]byte) int {
	n := 0
	for _, f := range frames {
		if h, _, err := DecodeFrame(f); err == nil && h.Type == TypeAck {
			n++
		}
	}
	return n
}
