package wire

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"marnet/internal/core"
)

var ackStreams = []StreamSpec{
	{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9},
	{ID: 2, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9},
	{ID: 3, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9},
}

func mustSend(t *testing.T, c *Conn, stream uint16, payload []byte) {
	t.Helper()
	if ok, err := c.Send(stream, payload); err != nil || !ok {
		t.Fatal("send refused", err)
	}
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
	n := newCoreNet(0)
	a := n.end(Config{Streams: ackStreams[:1], StartBudget: 1e9})
	b := n.end(Config{})
	const frames = 64
	for i := 0; i < frames; i++ {
		coreSend(t, a, 1, bytes.Repeat([]byte{byte(i)}, 100))
		n.run(10 * time.Microsecond)
	}
	if len(a.written) != frames {
		t.Fatalf("%d frames left the sender, want %d", len(a.written), frames)
	}
	for _, f := range a.written {
		b.receive(f)
	}
	// b has never sent, so it cannot time a delay: one pure ack per frame.
	if len(b.written) != frames {
		t.Fatalf("%d acks for %d frames of a one-way flow, want one each", len(b.written), frames)
	}
	last, _, err := DecodeFrame(b.written[frames-1])
	if err != nil || last.Type != TypeAck || last.Acks.Len() != 1 || last.Acks.Range(0) != (AckRange{Stream: 1, First: 0, Run: frames}) {
		t.Fatalf("last ack = %+v (%v), want one range naming the whole run", last, err)
	}
	n.run(10 * time.Millisecond) // past the loss guard: every frame is old enough to be declared lost
	a.receive(b.written[frames-1])
	if st := a.core.stream(1); st.retx != 0 || a.core.lostFrames != 0 || st.window.len() != 0 {
		t.Fatalf("after the one ack that arrived: %d retransmissions, %d declared lost, %d outstanding; want 0, 0, 0",
			st.retx, a.core.lostFrames, st.window.len())
	}
	if len(a.written) != frames {
		t.Fatalf("%d frames on the wire, want %d: something was sent twice", len(a.written), frames)
	}
}

// TestFramesPastThePeerWindowAreNotResent: the same lagging reader, but
// the one ack that gets through comes recvWindow+64 frames in. An ack names
// at most the receiver's window, so the 64 oldest frames are uncovered and
// declared lost. The receiver's window has passed them, and it would drop
// a copy as a duplicate, so none is sent. (Sending them was up to half a
// percent of TestDeliveryWindowedLoopbackSoak's frames when the sender's
// reader stalled for more than recvWindow acks.)
func TestFramesPastThePeerWindowAreNotResent(t *testing.T) {
	n := newCoreNet(0)
	a := n.end(Config{Streams: ackStreams[:1], StartBudget: 1e9})
	b := n.end(Config{})
	const frames, past = recvWindow + 64, 64
	for i := 0; i < frames; i++ {
		coreSend(t, a, 1, []byte{byte(i)})
		n.run(10 * time.Microsecond)
	}
	for _, f := range a.written {
		b.receive(f)
	}
	last, _, err := DecodeFrame(b.written[len(b.written)-1])
	if err != nil || last.Acks.Len() != 1 || last.Acks.Range(0) != (AckRange{Stream: 1, First: past, Run: recvWindow}) {
		t.Fatalf("last ack = %+v (%v), want one range naming the receiver's window", last, err)
	}
	n.run(10 * time.Millisecond) // past the loss guard
	a.receive(b.written[len(b.written)-1])
	if st := a.core.stream(1); st.retx != 0 || a.core.lostFrames != past || st.window.len() != 0 {
		t.Fatalf("after the one ack that arrived: %d retransmissions, %d declared lost, %d outstanding; want 0, %d, 0",
			st.retx, a.core.lostFrames, st.window.len(), past)
	}
	if len(a.written) != frames {
		t.Fatalf("%d frames on the wire, want %d: a copy the receiver would drop was sent", len(a.written), frames)
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
	// run returns b with what it wrote and when each frame was delivered to it.
	run := func(t *testing.T, prime bool, onB func(n *coreNet, b *coreEnd)) (b *coreEnd, arrivals []time.Time) {
		n := newCoreNet(oneWay)
		var a *coreEnd
		a, b = n.pair(Config{Streams: ackStreams, StartBudget: 1e9}, Config{Streams: ackStreams, StartBudget: 1e9})
		b.onMessage = func(Message) {
			arrivals = append(arrivals, n.now)
			if onB != nil {
				onB(n, b)
			}
		}
		if prime { // one frame b → a gives b an RTT sample, so it may hold acks
			coreSend(t, b, 1, []byte("prime"))
			n.run(every)
		}
		for i := 0; i < frames; i++ {
			coreSend(t, a, 1, make([]byte, 600))
			n.run(every)
		}
		within1pct("sender", a.core.rtt.Smoothed())
		return b, arrivals
	}
	// blocks is every acknowledgement block b wrote, and when each pure ack left.
	blocks := func(b *coreEnd) (all []AckBlock, pureAt []time.Time) {
		for i, f := range b.written {
			h, _, err := DecodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			if h.Type == TypeAck {
				pureAt = append(pureAt, b.writtenAt[i])
			}
			if len(h.Acks) > 0 {
				all = append(all, h.Acks)
			}
		}
		return all, pureAt
	}

	t.Run("at once", func(t *testing.T) {
		b, _ := run(t, false, nil)
		if pure := pureAcks(b.written); pure != frames {
			t.Errorf("%d pure acks for %d frames, want one each", pure, frames)
		}
	})
	t.Run("riding a response after 1 ms", func(t *testing.T) {
		b, _ := run(t, true, func(n *coreNet, b *coreEnd) {
			n.after(time.Millisecond, func() { coreSend(t, b, 1, []byte("response")) })
		})
		within1pct("responder", b.core.rtt.Smoothed())
		all, pureAt := blocks(b)
		if len(pureAt) != 0 || len(all) != frames {
			t.Errorf("%d pure acks and %d blocks on responses, want 0 and %d", len(pureAt), len(all), frames)
		}
		for _, blk := range all {
			if blk.Hold() != time.Millisecond {
				t.Fatalf("a ridden block declares a hold of %v, want 1ms", blk.Hold())
			}
		}
	})
	t.Run("held for the ack delay", func(t *testing.T) {
		b, arrivals := run(t, true, nil)
		_, pureAt := blocks(b)
		if len(pureAt) != frames || len(arrivals) != frames {
			t.Fatalf("%d pure acks for %d arrivals, want %d of each", len(pureAt), len(arrivals), frames)
		}
		for i, at := range pureAt {
			if held := at.Sub(arrivals[i]); held != 2*oneWay/4 {
				t.Fatalf("ack %d left %v after its frame, want SRTT/4 = %v", i, held, 2*oneWay/4)
			}
		}
	})
}

// primedReceiver is a core that has an RTT sample of rtt — one frame sent
// and acknowledged by hand — so it holds acks for rtt/4, with nothing
// recorded as written on return.
func primedReceiver(t *testing.T, n *coreNet, rtt time.Duration) *coreEnd {
	t.Helper()
	c := n.end(Config{Streams: ackStreams, StartBudget: 1e9})
	coreSend(t, c, 1, []byte("prime"))
	sent, _, err := DecodeFrame(c.written[0])
	if err != nil {
		t.Fatal(err)
	}
	n.run(rtt)
	c.receive(pureAck(sent.SendMicro, 0, AckRange{Stream: 1, First: 0, Run: 1}))
	if got, out := c.core.rtt.Smoothed(), c.core.stream(1).window.len(); got != rtt || out != 0 {
		t.Fatalf("primed core: SRTT %v with %d outstanding, want %v and 0", got, out, rtt)
	}
	c.written, c.writtenAt = nil, nil
	return c
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
	n := newCoreNet(0)
	c := primedReceiver(t, n, 10*time.Millisecond)
	for _, stream := range []uint16{2, 1, 3} {
		c.receive(streamFrame(stream, 0))
		c.receive(streamFrame(stream, 1))
		n.run(100 * time.Microsecond)
	}
	if len(c.written) != 0 {
		t.Fatalf("%d datagrams left for in-order arrivals inside the ack delay, want none", len(c.written))
	}
	c.receive(streamFrame(1, 1)) // a duplicate: acked at once
	if len(c.written) != 1 {
		t.Fatalf("%d datagrams for the duplicate, want one", len(c.written))
	}
	h, _, err := DecodeFrame(c.written[0])
	if err != nil || h.Type != TypeAck || h.Acks.Len() != 3 {
		t.Fatalf("the ack = %+v (%v), want a pure ack of three ranges", h, err)
	}
	for i, stream := range []uint16{2, 1, 3} {
		if got, want := h.Acks.Range(i), (AckRange{Stream: stream, First: 0, Run: 2}); got != want {
			t.Errorf("range %d = %+v, want %+v (filing order; the duplicate's range folded into its run's)", i, got, want)
		}
	}
	n.run(10 * time.Millisecond)
	if len(c.written) != 1 || c.core.owedN != 0 {
		t.Fatalf("%d datagrams and %d acks owed after the ack timer fired on an empty list, want 1 and 0", len(c.written), c.core.owedN)
	}

	// Owed again, and this time a data frame takes them — all of them.
	c.receive(streamFrame(3, 2))
	c.receive(streamFrame(2, 2))
	coreSend(t, c, 1, []byte("response"))
	h, _, err = DecodeFrame(c.written[1])
	if err != nil || h.Type != TypeData || h.Acks.Len() != 2 ||
		h.Acks.Range(0) != (AckRange{Stream: 3, First: 0, Run: 3}) || h.Acks.Range(1) != (AckRange{Stream: 2, First: 0, Run: 3}) {
		t.Fatalf("the data frame = %+v (%v), want both owed runs riding it in filing order", h, err)
	}
	n.run(10 * time.Millisecond)
	if len(c.written) != 2 {
		t.Fatalf("%d datagrams, want 2: an ack left on its own after it had ridden", len(c.written))
	}
}

// TestOwedRunOutlivesTheWindow: once a stream is older than the receive
// window every arrival's run starts one sequence later than the last one's,
// and is still the same run: it is merged into the range already owed, not
// filed beside it (which filled the eight ranges, and sent a pure ack, every
// eight requests of a pipelined client).
func TestOwedRunOutlivesTheWindow(t *testing.T) {
	n := newCoreNet(0)
	c := primedReceiver(t, n, 10*time.Millisecond)
	const frames = recvWindow + 100
	for seq := int64(0); seq < frames; seq++ {
		c.receive(streamFrame(2, seq))
		if seq%500 == 499 { // a response now and then, well inside the ack delay
			coreSend(t, c, 1, []byte("response"))
			n.run(100 * time.Microsecond)
		}
	}
	if sent, rode := c.core.acksSent, c.core.acksPiggybacked; sent != 0 || rode != frames/500 || c.core.owedN != 1 {
		t.Fatalf("%d pure acks, %d ridden blocks, %d ranges owed; want 0, %d and 1", sent, rode, c.core.owedN, frames/500)
	}
	coreSend(t, c, 1, []byte("response"))
	h, _, err := DecodeFrame(c.written[len(c.written)-1])
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
	n := newCoreNet(0)
	c := primedReceiver(t, n, 10*time.Millisecond)
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
		c.receive(streamFrame(1, seq))
	}
	c.receive(streamFrame(1, 5)) // opens the gap 3..4: the ack, then the NACK
	if len(c.written) != 2 {
		t.Fatalf("%d datagrams for the gap opener, want the ack and the NACK", len(c.written))
	}
	if got := ranges(c.written[0]); len(got) != 2 || got[0] != (AckRange{1, 0, 3}) || got[1] != (AckRange{1, 5, 1}) {
		t.Fatalf("gap opener acked as %+v, want the owed run 0..2 and then 5 alone", got)
	}
	c.receive(streamFrame(1, 3)) // fills a hole without touching the newest run
	if got := ranges(c.written[2]); len(got) != 1 || got[0] != (AckRange{1, 3, 1}) {
		t.Fatalf("hole filler 3 acked as %+v, want it alone, at once", got)
	}
	c.receive(streamFrame(1, 4)) // touches the run that starts at 5: 0..5 is whole again
	if got := ranges(c.written[3]); len(got) != 1 || got[0] != (AckRange{1, 0, 6}) {
		t.Fatalf("hole filler 4 acked as %+v, want the re-joined run 0..5", got)
	}

	// Eight streams' worth of in-order arrivals: the eighth fills the list.
	c.written = nil
	for stream := uint16(10); stream < 10+MaxAckRanges; stream++ {
		if len(c.written) != 0 {
			t.Fatalf("an ack left with %d ranges owed", stream-10)
		}
		c.receive(streamFrame(stream, 0))
	}
	if len(c.written) != 1 || len(ranges(c.written[0])) != MaxAckRanges {
		t.Fatalf("%d datagrams when the ranges filled up, want one ack carrying all %d", len(c.written), MaxAckRanges)
	}
}

// TestAckTimerOnlyWhileOwed: the ack timer is no periodic chain. An idle
// conn never arms it, nor does the receiver of a one-way flow (which acks
// frame by frame); a busy conn whose acks all ride arms it at most once per
// ack delay — it is left to fire on nothing, or re-armed for the remainder,
// rather than stopped and restarted per frame.
func TestAckTimerOnlyWhileOwed(t *testing.T) {
	n := newCoreNet(0)
	idle := n.end(Config{Streams: ackStreams})
	oneWay := n.end(Config{})
	for seq := int64(0); seq < 200; seq++ {
		oneWay.receive(streamFrame(1, seq))
		n.run(time.Millisecond)
	}
	if arms := append(idle.arms, oneWay.arms...); len(arms) != 0 {
		t.Fatalf("an idle conn and a one-way receiver armed timers %v, want none", arms)
	}
	if oneWay.core.acksSent != 200 {
		t.Fatalf("one-way receiver sent %d acks for 200 frames", oneWay.core.acksSent)
	}

	const rtt, spacing, rideEvery, span = 10 * time.Millisecond, 100 * time.Microsecond, 10, 100 * time.Millisecond
	busy := primedReceiver(t, n, rtt)
	mark := len(busy.arms)
	seq := int64(0)
	for el := time.Duration(0); el < span; el += spacing {
		busy.receive(streamFrame(2, seq))
		seq++
		if seq%rideEvery == 0 { // a response every millisecond takes what is owed
			coreSend(t, busy, 1, []byte("response"))
		}
		n.run(spacing)
	}
	arms := busy.arms[mark:]
	if limit := int(span/(rtt/4-rideEvery*spacing)) + 1; len(arms) == 0 || len(arms) > limit {
		t.Fatalf("ack timer armed %d times in %v of traffic with a %v ack delay, want 1..%d", len(arms), span, rtt/4, limit)
	}
	for _, d := range arms {
		if d > rtt/4 || d <= 0 {
			t.Fatalf("ack timer armed for %v, want within (0, %v]", d, rtt/4)
		}
	}
	if sent, rode := busy.core.acksSent, busy.core.acksPiggybacked; sent != 0 || rode != seq/rideEvery || len(busy.written) != int(seq/rideEvery) {
		t.Fatalf("%d pure acks, %d blocks ridden on %d data frames; want 0, %d, %d", sent, rode, len(busy.written), seq/rideEvery, seq/rideEvery)
	}
}
