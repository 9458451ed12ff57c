package wire

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"marnet/internal/core"
)

// pipePC hands what its conn writes to the peer conn after delay on the
// manual clock, and keeps the books the ack tests read: how many pure acks
// left and when, and every block seen on any frame.
type pipePC struct {
	stubPC
	clk    *manualClock
	delay  time.Duration
	to     *Conn
	pure   int
	pureAt []time.Time
	blocks []AckBlock
}

func (p *pipePC) WriteToUDP(b []byte, a *net.UDPAddr) (int, error) {
	cp := append([]byte(nil), b...)
	h, _, err := DecodeFrame(cp)
	if err != nil {
		return 0, err
	}
	if h.Type == TypeAck {
		p.pure++
		p.pureAt = append(p.pureAt, p.clk.Now())
	}
	if len(h.Acks) > 0 {
		p.blocks = append(p.blocks, h.Acks)
	}
	p.clk.AfterFunc(p.delay, func() { p.to.handleDatagram(cp, stubPeer, 0) })
	return len(b), nil
}

var ackStreams = []StreamSpec{
	{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9},
	{ID: 2, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9},
	{ID: 3, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9},
}

// ackPair is two conns, a and b, joined by pipes of oneWay each way; pb is
// the pipe b writes to.
func ackPair(t *testing.T, clk *manualClock, oneWay time.Duration, onB func(Message)) (a, b *Conn, pb *pipePC) {
	t.Helper()
	pa := &pipePC{clk: clk, delay: oneWay}
	pb = &pipePC{clk: clk, delay: oneWay}
	var err error
	if a, err = DialVia(pa, stubPeer, Config{Streams: ackStreams, StartBudget: 1e9, Clock: clk}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if b, err = DialVia(pb, stubPeer, Config{Streams: ackStreams, StartBudget: 1e9, Clock: clk, OnMessage: onB}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	pa.to, pb.to = b, a
	return a, b, pb
}

func mustSend(t *testing.T, c *Conn, stream uint16, payload []byte) {
	t.Helper()
	if ok, err := c.Send(stream, payload); err != nil || !ok {
		t.Fatal("send refused", err)
	}
}

func outstandingFrames(c *Conn, stream uint16) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.streamLocked(stream).outstanding)
}

// stepClock advances the manual clock by total in half-millisecond steps, so
// a timer fires within that of when it asked to (the manual clock fires what
// is due at the end of an advance, at the advanced time).
func stepClock(clk *manualClock, total time.Duration) {
	for el := time.Duration(0); el < total; el += 500 * time.Microsecond {
		clk.advance(500 * time.Microsecond)
	}
}

// TestDroppedAcksAreRepairedNotRetransmitted is ROADMAP 0f as a test: 64
// frames arrive in order and every ack datagram but the last is dropped —
// what the kernel does to a sender whose reader lags its own socket buffer.
// The one ack that gets through names the whole run, so nothing is declared
// lost and nothing is sent twice. (With one sequence per ack the last ack
// moved maxAcked to 63 and the 60 frames more than the reorder slack behind
// it, all older than the 5 ms guard, were retransmitted in one burst.)
func TestDroppedAcksAreRepairedNotRetransmitted(t *testing.T) {
	clk := newManualClock()
	pa, pb := &stubPC{record: true}, &stubPC{record: true}
	a, err := DialVia(pa, stubPeer, Config{Streams: ackStreams[:1], StartBudget: 1e9, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenVia(pb, Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const frames = 64
	for i := 0; i < frames; i++ {
		mustSend(t, a, 1, bytes.Repeat([]byte{byte(i)}, 100))
		clk.advance(10 * time.Microsecond)
	}
	if len(pa.frames) != frames {
		t.Fatalf("%d frames left the sender, want %d", len(pa.frames), frames)
	}
	for _, f := range pa.frames {
		b.handleDatagram(f, stubPeer, 0)
	}
	// b has never sent, so it cannot time a delay: one pure ack per frame.
	if len(pb.frames) != frames {
		t.Fatalf("%d acks for %d frames of a one-way flow, want one each", len(pb.frames), frames)
	}
	last, _, err := DecodeFrame(pb.frames[frames-1])
	if err != nil || last.Type != TypeAck || last.Acks.Len() != 1 || last.Acks.Range(0) != (AckRange{Stream: 1, First: 0, Run: frames}) {
		t.Fatalf("last ack = %+v (%v), want one range naming the whole run", last, err)
	}
	clk.advance(10 * time.Millisecond) // past the loss guard: every frame is old enough to be declared lost
	a.handleDatagram(pb.frames[frames-1], stubPeer, 0)
	if st := a.Stats(1); st.Retx != 0 || a.LostFrameCount() != 0 || outstandingFrames(a, 1) != 0 {
		t.Fatalf("after the one ack that arrived: %d retransmissions, %d declared lost, %d outstanding; want 0, 0, 0",
			st.Retx, a.LostFrameCount(), outstandingFrames(a, 1))
	}
	if len(pa.frames) != frames {
		t.Fatalf("%d frames on the wire, want %d: something was sent twice", len(pa.frames), frames)
	}
}

// TestDeliveryWindowedLoopbackSoak is the loop that found 0f: Dial→Listen on
// loopback, 32 frames of 640 B in flight, the window advanced by delivery —
// so the sender's own reader lags and the kernel drops acks at its socket.
// Every round delivers everything and next to nothing is retransmitted; the
// bound is not zero because a 100 ms freeze of the host legitimately trips
// the sweep.
func TestDeliveryWindowedLoopbackSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("a quarter of a million frames over loopback")
	}
	const (
		perRound, window = 2500, 32
		stall            = 200 * time.Millisecond
	)
	rounds := 100
	if raceEnabled {
		rounds = 10 // the detector makes a frame ten times dearer; the race is in the tests above
	}
	var got atomic.Int64
	kick := make(chan struct{}, 1)
	srv, err := Listen("127.0.0.1:0", Config{Key: benchKey, StartBudget: 1e9, OnMessage: func(Message) {
		got.Add(1)
		select {
		case kick <- struct{}{}:
		default:
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.LocalAddr().String(), Config{Key: benchKey, StartBudget: 1e9,
		Streams: []StreamSpec{{ID: 1, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 1e9, Deadline: time.Second}}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload := make([]byte, 640)
	timer := time.NewTimer(stall)
	defer timer.Stop()
	var sent int64
	for r := 0; r < rounds; r++ {
		target := int64(r+1) * perRound
		for got.Load() < target {
			for sent < target && sent-got.Load() < window {
				mustSend(t, cl, 1, payload)
				sent++
			}
			timer.Reset(stall)
			select {
			case <-kick:
			case <-timer.C:
				t.Fatalf("round %d stalled at %d of %d frames: %+v, %d declared lost", r, got.Load()-target+perRound, perRound, cl.Stats(1), cl.LostFrameCount())
			}
		}
	}
	st := cl.Stats(1)
	t.Logf("%d frames sent, %d retransmitted, %d declared lost; receiver saw %d duplicates", st.Sent, st.Retx, cl.LostFrameCount(), srv.Stats(1).Duplicates)
	if st.Retx*1000 > st.Sent {
		t.Fatalf("%d retransmissions in %d frames sent, want under 0.1 %%; receiver saw %d duplicates", st.Retx, st.Sent, srv.Stats(1).Duplicates)
	}
}

// TestHeldAckDoesNotInflateSRTT: over a path of 5 ms each way the sender
// reads 10 ms whether its acks come back at once (the receiver has no RTT
// sample and cannot time a delay), ride a response 1 ms later, or wait out
// the receiver's ack delay of SRTT/4 = 2.5 ms — the hold travels in the
// block and is subtracted. The controller reacts to delay and rpc.Server
// anchors deadlines on SRTT/2, so a biased sample would be a throughput bug.
func TestHeldAckDoesNotInflateSRTT(t *testing.T) {
	const oneWay, frames, every = 5 * time.Millisecond, 50, 20 * time.Millisecond
	within1pct := func(name string, got time.Duration) {
		t.Helper()
		if got < 2*oneWay*99/100 || got > 2*oneWay*101/100 {
			t.Errorf("%s SRTT = %v, want within 1 %% of %v", name, got, 2*oneWay)
		}
	}
	run := func(t *testing.T, prime bool, onB func(b *Conn, clk *manualClock)) (b *Conn, pb *pipePC, arrivals []time.Time) {
		clk := newManualClock()
		var a *Conn
		a, b, pb = ackPair(t, clk, oneWay, func(Message) {
			arrivals = append(arrivals, clk.Now())
			if onB != nil {
				onB(b, clk)
			}
		})
		if prime { // one frame b → a gives b an RTT sample, so it may hold acks
			mustSend(t, b, 1, []byte("prime"))
			stepClock(clk, every)
		}
		for i := 0; i < frames; i++ {
			mustSend(t, a, 1, make([]byte, 600))
			stepClock(clk, every)
		}
		within1pct("sender", a.SRTT())
		return b, pb, arrivals
	}

	t.Run("at once", func(t *testing.T) {
		_, pb, _ := run(t, false, nil)
		if pb.pure != frames {
			t.Errorf("%d pure acks for %d frames, want one each", pb.pure, frames)
		}
	})
	t.Run("riding a response after 1 ms", func(t *testing.T) {
		b, pb, _ := run(t, true, func(b *Conn, clk *manualClock) {
			clk.AfterFunc(time.Millisecond, func() { mustSend(t, b, 1, []byte("response")) })
		})
		within1pct("responder", b.SRTT())
		if pb.pure != 0 || len(pb.blocks) != frames {
			t.Errorf("%d pure acks and %d blocks on responses, want 0 and %d", pb.pure, len(pb.blocks), frames)
		}
		for _, blk := range pb.blocks {
			if blk.Hold() != time.Millisecond {
				t.Fatalf("a ridden block declares a hold of %v, want 1ms", blk.Hold())
			}
		}
	})
	t.Run("held for the ack delay", func(t *testing.T) {
		_, pb, arrivals := run(t, true, nil)
		if len(pb.pureAt) != frames || len(arrivals) != frames {
			t.Fatalf("%d pure acks for %d arrivals, want %d of each", len(pb.pureAt), len(arrivals), frames)
		}
		for i, at := range pb.pureAt {
			if held := at.Sub(arrivals[i]); held != 2*oneWay/4 {
				t.Fatalf("ack %d left %v after its frame, want SRTT/4 = %v", i, held, 2*oneWay/4)
			}
		}
	})
}

// primedReceiver is a conn that has an RTT sample of rtt — one frame sent
// and acknowledged by hand — so it holds acks for rtt/4, over a recording
// transport that is empty again on return.
func primedReceiver(t *testing.T, clk *manualClock, rtt time.Duration) (*Conn, *stubPC) {
	t.Helper()
	pc := &stubPC{record: true}
	c, err := DialVia(pc, stubPeer, Config{Streams: ackStreams, StartBudget: 1e9, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	mustSend(t, c, 1, []byte("prime"))
	sent, _, err := DecodeFrame(pc.frames[0])
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(rtt)
	c.handleDatagram(pureAck(sent.SendMicro, 0, AckRange{Stream: 1, First: 0, Run: 1}), stubPeer, 0)
	if got := c.SRTT(); got != rtt || outstandingFrames(c, 1) != 0 {
		t.Fatalf("primed conn: SRTT %v with %d outstanding, want %v and 0", got, outstandingFrames(c, 1), rtt)
	}
	pc.frames = nil
	return c, pc
}

func pureAck(echo uint64, hold time.Duration, ranges ...AckRange) []byte {
	frame, err := AppendFrame(nil, Header{Type: TypeAck, Acks: AppendAckBlock(nil, echo, hold, ranges)}, nil)
	if err != nil {
		panic(err)
	}
	return frame
}

func streamFrame(stream uint16, seq int64) []byte {
	frame, err := AppendFrame(nil, Header{Type: TypeData, Stream: stream, Class: uint8(core.ClassCritical), Seq: seq, SendMicro: 7}, []byte("data"))
	if err != nil {
		panic(err)
	}
	return frame
}

// TestAcksLeaveTogetherAndInOrder: whatever makes an ack leave takes every
// owed ack with it, in the order they were filed, so none overtakes an
// earlier one — here three streams' in-order arrivals are owed when a
// duplicate forces the issue — and the timer armed for them then fires on
// nothing. The same holds for what a data frame carries.
func TestAcksLeaveTogetherAndInOrder(t *testing.T) {
	clk := newManualClock()
	c, pc := primedReceiver(t, clk, 10*time.Millisecond)
	for _, stream := range []uint16{2, 1, 3} {
		c.handleDatagram(streamFrame(stream, 0), stubPeer, 0)
		c.handleDatagram(streamFrame(stream, 1), stubPeer, 0)
		clk.advance(100 * time.Microsecond)
	}
	if len(pc.frames) != 0 {
		t.Fatalf("%d datagrams left for in-order arrivals inside the ack delay, want none", len(pc.frames))
	}
	c.handleDatagram(streamFrame(1, 1), stubPeer, 0) // a duplicate: acked at once
	if len(pc.frames) != 1 {
		t.Fatalf("%d datagrams for the duplicate, want one", len(pc.frames))
	}
	h, _, err := DecodeFrame(pc.frames[0])
	if err != nil || h.Type != TypeAck || h.Acks.Len() != 3 {
		t.Fatalf("the ack = %+v (%v), want a pure ack of three ranges", h, err)
	}
	for i, stream := range []uint16{2, 1, 3} {
		if got, want := h.Acks.Range(i), (AckRange{Stream: stream, First: 0, Run: 2}); got != want {
			t.Errorf("range %d = %+v, want %+v (filing order; the duplicate's range folded into its run's)", i, got, want)
		}
	}
	clk.advance(10 * time.Millisecond)
	if len(pc.frames) != 1 || c.owedN != 0 {
		t.Fatalf("%d datagrams and %d acks owed after the ack timer fired on an empty list, want 1 and 0", len(pc.frames), c.owedN)
	}

	// Owed again, and this time a data frame takes them — all of them.
	c.handleDatagram(streamFrame(3, 2), stubPeer, 0)
	c.handleDatagram(streamFrame(2, 2), stubPeer, 0)
	mustSend(t, c, 1, []byte("response"))
	h, _, err = DecodeFrame(pc.frames[1])
	if err != nil || h.Type != TypeData || h.Acks.Len() != 2 ||
		h.Acks.Range(0) != (AckRange{Stream: 3, First: 0, Run: 3}) || h.Acks.Range(1) != (AckRange{Stream: 2, First: 0, Run: 3}) {
		t.Fatalf("the data frame = %+v (%v), want both owed runs riding it in filing order", h, err)
	}
	clk.advance(10 * time.Millisecond)
	if len(pc.frames) != 2 {
		t.Fatalf("%d datagrams, want 2: an ack left on its own after it had ridden", len(pc.frames))
	}
}

// TestOwedRunOutlivesTheWindow: once a stream is older than the receive
// window every arrival's run starts one sequence later than the last one's,
// and is still the same run: it is merged into the range already owed, not
// filed beside it (which filled the eight ranges, and sent a pure ack, every
// eight requests of a pipelined client).
func TestOwedRunOutlivesTheWindow(t *testing.T) {
	clk := newManualClock()
	c, pc := primedReceiver(t, clk, 10*time.Millisecond)
	const frames = recvWindow + 100
	for seq := int64(0); seq < frames; seq++ {
		c.handleDatagram(streamFrame(2, seq), stubPeer, 0)
		if seq%500 == 499 { // a response now and then, well inside the ack delay
			mustSend(t, c, 1, []byte("response"))
			clk.advance(100 * time.Microsecond)
		}
	}
	if sent, rode := c.AckStats(); sent != 0 || rode != frames/500 || c.owedN != 1 {
		t.Fatalf("%d pure acks, %d ridden blocks, %d ranges owed; want 0, %d and 1", sent, rode, c.owedN, frames/500)
	}
	mustSend(t, c, 1, []byte("response"))
	h, _, err := DecodeFrame(pc.frames[len(pc.frames)-1])
	if err != nil || h.Acks.Len() != 1 {
		t.Fatalf("last response = %+v (%v), want one range", h, err)
	}
	if r := h.Acks.Range(0); r.First+int64(r.Run) != frames || r.Run < recvWindow {
		t.Fatalf("the run rode as %+v, want it to end at %d and reach back a whole window", r, frames)
	}
}

// TestOutOfOrderArrivalsAreAckedAtOnce: the cases that cannot wait. A gap
// opener and a hole filler are acknowledged immediately even by a conn that
// may hold acks — the peer's loss detection is waiting on them — and so is
// whatever fills the last of the eight ranges. The filler that touches the
// run re-joins it backwards, so its ack names the whole run again.
func TestOutOfOrderArrivalsAreAckedAtOnce(t *testing.T) {
	clk := newManualClock()
	c, pc := primedReceiver(t, clk, 10*time.Millisecond)
	ranges := func(frame []byte) []AckRange {
		t.Helper()
		h, _, err := DecodeFrame(frame)
		if err != nil || h.Type != TypeAck {
			t.Fatalf("not a pure ack: %+v (%v)", h, err)
		}
		var out []AckRange
		for i := 0; i < h.Acks.Len(); i++ {
			out = append(out, h.Acks.Range(i))
		}
		return out
	}
	for seq := int64(0); seq < 3; seq++ {
		c.handleDatagram(streamFrame(1, seq), stubPeer, 0)
	}
	c.handleDatagram(streamFrame(1, 5), stubPeer, 0) // opens the gap 3..4: the ack, then the NACK
	if len(pc.frames) != 2 {
		t.Fatalf("%d datagrams for the gap opener, want the ack and the NACK", len(pc.frames))
	}
	if got := ranges(pc.frames[0]); len(got) != 2 || got[0] != (AckRange{1, 0, 3}) || got[1] != (AckRange{1, 5, 1}) {
		t.Fatalf("gap opener acked as %+v, want the owed run 0..2 and then 5 alone", got)
	}
	c.handleDatagram(streamFrame(1, 3), stubPeer, 0) // fills a hole without touching the newest run
	if got := ranges(pc.frames[2]); len(got) != 1 || got[0] != (AckRange{1, 3, 1}) {
		t.Fatalf("hole filler 3 acked as %+v, want it alone, at once", got)
	}
	c.handleDatagram(streamFrame(1, 4), stubPeer, 0) // touches the run that starts at 5: 0..5 is whole again
	if got := ranges(pc.frames[3]); len(got) != 1 || got[0] != (AckRange{1, 0, 6}) {
		t.Fatalf("hole filler 4 acked as %+v, want the re-joined run 0..5", got)
	}

	// Eight streams' worth of in-order arrivals: the eighth fills the list.
	pc.frames = nil
	for stream := uint16(10); stream < 10+MaxAckRanges; stream++ {
		if len(pc.frames) != 0 {
			t.Fatalf("an ack left with %d ranges owed", stream-10)
		}
		c.handleDatagram(streamFrame(stream, 0), stubPeer, 0)
	}
	if len(pc.frames) != 1 || len(ranges(pc.frames[0])) != MaxAckRanges {
		t.Fatalf("%d datagrams when the ranges filled up, want one ack carrying all %d", len(pc.frames), MaxAckRanges)
	}
}

// TestAckTimerOnlyWhileOwed: the ack timer is no periodic chain. An idle
// conn never arms it, nor does the receiver of a one-way flow (which acks
// frame by frame); a busy conn whose acks all ride arms it at most once per
// ack delay — it is left to fire on nothing, or re-armed for the remainder,
// rather than stopped and restarted per frame.
func TestAckTimerOnlyWhileOwed(t *testing.T) {
	clk := newManualClock()
	idle, err := DialVia(&stubPC{}, stubPeer, Config{Streams: ackStreams, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	oneWay, err := ListenVia(&stubPC{}, Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer oneWay.Close()
	mark := len(clk.arms)
	for seq := int64(0); seq < 200; seq++ {
		oneWay.handleDatagram(streamFrame(1, seq), stubPeer, 0)
		clk.advance(time.Millisecond)
	}
	if arms := paceArms(clk, mark); len(arms) != 0 {
		t.Fatalf("an idle conn and a one-way receiver armed timers %v, want none but their sweeps", arms)
	}
	if oneWay.AcksSent != 200 {
		t.Fatalf("one-way receiver sent %d acks for 200 frames", oneWay.AcksSent)
	}

	const rtt, spacing, rideEvery, span = 10 * time.Millisecond, 100 * time.Microsecond, 10, 100 * time.Millisecond
	busy, pc := primedReceiver(t, clk, rtt)
	mark = len(clk.arms)
	seq := int64(0)
	for el := time.Duration(0); el < span; el += spacing {
		busy.handleDatagram(streamFrame(2, seq), stubPeer, 0)
		seq++
		if seq%rideEvery == 0 { // a response every millisecond takes what is owed
			mustSend(t, busy, 1, []byte("response"))
		}
		clk.advance(spacing)
	}
	arms := paceArms(clk, mark)
	if limit := int(span/(rtt/4-rideEvery*spacing)) + 1; len(arms) == 0 || len(arms) > limit {
		t.Fatalf("ack timer armed %d times in %v of traffic with a %v ack delay, want 1..%d", len(arms), span, rtt/4, limit)
	}
	for _, d := range arms {
		if d > rtt/4 || d <= 0 {
			t.Fatalf("ack timer armed for %v, want within (0, %v]", d, rtt/4)
		}
	}
	if busy.AcksSent != 0 || busy.AcksPiggybacked != seq/rideEvery || len(pc.frames) != int(seq/rideEvery) {
		t.Fatalf("%d pure acks, %d blocks ridden on %d data frames; want 0, %d, %d", busy.AcksSent, busy.AcksPiggybacked, len(pc.frames), seq/rideEvery, seq/rideEvery)
	}
}
