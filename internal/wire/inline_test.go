package wire

import (
	"bytes"
	"encoding/binary"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"marnet/internal/core"
)

// grainClock is a manualClock that, like the system clock, admits it cannot
// time less than a millisecond.
type grainClock struct{ *manualClock }

func (grainClock) Granularity() time.Duration { return time.Millisecond }

// stampPC records when (on the test clock) each datagram left, and — given
// the conn — whether the writer held the conn's state lock.
type stampPC struct {
	stubPC
	clk      *manualClock
	conn     *Conn
	at       []time.Time
	held     int    // data frames written with conn.mu held
	acks     int    // acks written
	heldAcks int    // of them, with conn.mu held
	onAck    func() // runs inside the write of every ack
	// Per datagram type: how many were written, and how many of them with
	// conn.mu held.
	written, heldBy [TypePong + 1]int
}

func (p *stampPC) WriteToUDP(b []byte, a *net.UDPAddr) (int, error) {
	if h, _, err := DecodeFrame(b); err == nil && p.conn != nil {
		free := p.conn.mu.TryLock()
		if free {
			p.conn.mu.Unlock()
		}
		p.written[h.Type]++
		if !free {
			p.heldBy[h.Type]++
		}
		switch {
		case h.Type == TypeAck:
			p.acks++
			if !free {
				p.heldAcks++
			}
			if p.onAck != nil {
				p.onAck()
			}
		case h.Type == TypeData && !free:
			p.held++
		}
	}
	p.at = append(p.at, p.clk.Now())
	return p.stubPC.WriteToUDP(b, a)
}

// paceArms is the delays of the timers armed since mark.
func paceArms(clk *manualClock, mark int) []time.Duration {
	clk.mu.Lock()
	defer clk.mu.Unlock()
	return append([]time.Duration(nil), clk.arms[mark:]...)
}

// TestSendTransmitsOnCaller pins who transmits: a frame that is due is on
// the transport when Send returns and no timer was armed for it; a frame
// sent inside the gap arms exactly one timer for exactly the rest of the
// gap, so on a clock without granularity the departures are the budget
// schedule to the nanosecond, as they were when a zero-delay timer sent the
// first frame.
func TestSendTransmitsOnCaller(t *testing.T) {
	clk := newManualClock()
	pc := &stampPC{clk: clk}
	const budget = 10e6
	c, err := DialVia(pc, stubPeer, Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioHighest, Rate: budget}},
		StartBudget: budget,
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mark := len(clk.arms)
	t0 := clk.Now()
	payload := make([]byte, 1000)
	send := func() {
		t.Helper()
		if ok, serr := c.Send(1, payload); serr != nil || !ok {
			t.Fatal("send refused", serr)
		}
	}

	send()
	if pc.writes != 1 {
		t.Fatalf("%d frames on the transport when Send returned, want 1", pc.writes)
	}
	if arms := paceArms(clk, mark); len(arms) != 0 {
		t.Fatalf("a due frame armed timers %v, want none", arms)
	}
	wire := len(payload) + HeaderLen
	gap := time.Duration(float64(wire*8) / budget * float64(time.Second))

	send() // inside the gap: waits for the timer
	send() // and the third finds the timer already armed
	if pc.writes != 1 {
		t.Fatalf("%d frames left inside the gap, want 1", pc.writes)
	}
	if arms := paceArms(clk, mark); len(arms) != 1 || arms[0] != gap {
		t.Fatalf("timers armed inside the gap = %v, want exactly [%v]", arms, gap)
	}
	clk.advance(gap - time.Nanosecond)
	if pc.writes != 1 {
		t.Fatal("second frame left before its gap was over")
	}
	clk.advance(time.Nanosecond)
	clk.advance(gap)
	want := []time.Time{t0, t0.Add(gap), t0.Add(2 * gap)}
	if len(pc.at) != 3 || !pc.at[1].Equal(want[1]) || !pc.at[2].Equal(want[2]) {
		t.Fatalf("departures %v, want %v", pc.at, want)
	}
	if arms := paceArms(clk, mark); len(arms) != 2 || arms[1] != gap {
		t.Fatalf("timers armed = %v, want [%v %v]", arms, gap, gap)
	}
}

// TestPacerDebtKeepsAverageRate runs 200 queued frames at 10 Mb/s through a
// clock with 1 ms granularity. The gap (176 µs) is below what the clock can
// time, so frames leave up to a granule early and the time is carried as
// debt: no timer under a granule is ever armed, no frame is more than a
// granule ahead of the budget schedule (so a burst is a granule of budget
// plus the frame that was due), and the last frame leaves when the budget
// says, give or take the granule.
func TestPacerDebtKeepsAverageRate(t *testing.T) {
	clk := newManualClock()
	pc := &stampPC{clk: clk}
	const (
		budget = 10e6
		frames = 200
		grain  = time.Millisecond
	)
	c, err := DialVia(pc, stubPeer, Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioHighest, Rate: budget}},
		StartBudget: budget,
		Clock:       grainClock{clk},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mark := len(clk.arms)
	t0 := clk.Now()
	payload := make([]byte, 200)
	for i := 0; i < frames; i++ {
		if ok, serr := c.Send(1, payload); serr != nil || !ok {
			t.Fatal("send refused", serr)
		}
	}
	wire := len(payload) + HeaderLen
	gap := time.Duration(float64(wire*8) / budget * float64(time.Second))
	for i := 0; len(pc.at) < frames && i < frames; i++ {
		clk.advance(clk.untilNextTimer()) // every timer fires exactly when it asked to
	}
	if len(pc.at) != frames {
		t.Fatalf("%d of %d frames left", len(pc.at), frames)
	}
	for _, d := range paceArms(clk, mark) {
		if d <= grain {
			t.Fatalf("pace timer armed for %v, at or under the clock's %v granularity", d, grain)
		}
	}
	burst, maxBurst := 0, 0
	for k, at := range pc.at {
		due := t0.Add(time.Duration(k) * gap)
		if early := due.Sub(at); early > grain {
			t.Fatalf("frame %d left %v ahead of the budget schedule, more than a granule", k, early)
		}
		if k > 0 && !at.Equal(pc.at[k-1]) {
			burst = 0
		}
		burst++
		maxBurst = max(maxBurst, burst)
	}
	if limit := int(grain/gap) + 1; maxBurst > limit || maxBurst < 2 {
		t.Fatalf("largest burst %d frames, want 2..%d (a granule of budget plus the frame that was due)", maxBurst, limit)
	}
	total := time.Duration(frames-1) * gap
	if last := pc.at[frames-1].Sub(t0); last < total-grain || last > total {
		t.Fatalf("last frame left at +%v, want within a granule (%v) before %v", last, grain, total)
	}
}

// reliableConn is a conn with one critical stream on a fast budget, over a
// stampPC that watches conn.mu, with n frames sent and past the loss guard.
func reliableConn(t *testing.T, clk *manualClock, n int) (*Conn, *stampPC) {
	t.Helper()
	pc := &stampPC{clk: clk}
	c, err := DialVia(pc, stubPeer, Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9}},
		StartBudget: 1e9,
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	pc.conn = c
	for i := 0; i < n; i++ {
		if ok, serr := c.Send(1, bytes.Repeat([]byte{byte(i)}, 100)); serr != nil || !ok {
			t.Fatal("send refused", serr)
		}
		clk.advance(10 * time.Microsecond)
	}
	clk.advance(10 * time.Millisecond) // past lossEligibleLocked's 5 ms guard
	return c, pc
}

func nackFor(seqs ...int64) []byte {
	frame, err := AppendFrame(nil, Header{Type: TypeNack, Stream: 1}, AppendNackPayload(nil, seqs))
	if err != nil {
		panic(err)
	}
	return frame
}

// TestRetransmitDrainsAfterUnlock: a retransmission leaves from the
// goroutine that declared the loss — the reader that decoded the NACK, the
// sweep — before that call returns, with no pace timer in between and with
// conn.mu released around the write.
func TestRetransmitDrainsAfterUnlock(t *testing.T) {
	clk := newManualClock()
	c, pc := reliableConn(t, clk, 1)
	mark := len(clk.arms)

	c.handleDatagram(nackFor(0), stubPeer, 0)
	if pc.writes != 2 || c.Stats(1).Retx != 1 {
		t.Fatalf("after the NACK returned: %d writes, %d retx, want 2 and 1", pc.writes, c.Stats(1).Retx)
	}

	// Still not acked: the third sweep from here finds it stale (100 ms) and
	// the sweep's own callback puts it on the transport.
	clk.advance(3 * sweepInterval)
	if pc.writes != 3 || c.Stats(1).Retx != 2 {
		t.Fatalf("after the sweep: %d writes, %d retx, want 3 and 2", pc.writes, c.Stats(1).Retx)
	}
	// The frame is still outstanding, so the one timer armed is the alarm
	// for the next sweep; none was armed for pacing.
	if arms := paceArms(clk, mark); len(arms) != 1 || arms[0] != sweepInterval {
		t.Fatalf("retransmissions armed timers %v, want only the next sweep's [%v]", arms, sweepInterval)
	}
	if pc.held != 0 {
		t.Fatalf("%d data frames were written with conn.mu held", pc.held)
	}
}

// TestIdleConnArmsOnlyKeepalive: a conn with nothing outstanding sets no
// sweep deadline, so an idle second on a 100 ms keepalive arms its one timer
// once per probe — ten times, where a sweep that re-armed itself every 50 ms
// added twenty. A frame sent after the idle spell, off the grid, sets the
// sweep again on the conn's epoch + k·50 ms grid, so its retransmission
// leaves on the grid point a sweep that never stopped would have sent it
// from: the first sweep at least 100 ms after the send (no RTT sample).
func TestIdleConnArmsOnlyKeepalive(t *testing.T) {
	clk := newManualClock()
	pc := &stampPC{clk: clk, stubPC: stubPC{record: true}}
	c, err := DialVia(pc, stubPeer, Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9}},
		StartBudget: 1e9,
		Keepalive:   100 * time.Millisecond,
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	t0 := clk.Now()
	until := func(at time.Duration) {
		for clk.Now().Sub(t0) < at {
			clk.advance(time.Millisecond)
		}
	}
	mark := len(clk.arms)
	until(time.Second)
	if arms := paceArms(clk, mark); len(arms) != 10 {
		t.Fatalf("an idle second armed %d timers %v, want 10: one per keepalive", len(arms), arms)
	}

	until(1017 * time.Millisecond)
	if ok, serr := c.Send(1, []byte("dropped")); serr != nil || !ok {
		t.Fatal("send refused", serr)
	}
	until(1200 * time.Millisecond)
	var data []time.Duration
	for i, f := range pc.frames {
		if h, _, derr := DecodeFrame(f); derr == nil && h.Type == TypeData {
			data = append(data, pc.at[i].Sub(t0))
		}
	}
	if want := []time.Duration{1017 * time.Millisecond, 1150 * time.Millisecond}; !slices.Equal(data, want) {
		t.Fatalf("data frames left at %v, want %v", data, want)
	}
}

func dataFrame(seq int64, payload []byte) []byte {
	frame, err := AppendFrame(nil, Header{Type: TypeData, Stream: 1, Class: uint8(core.ClassCritical), Seq: seq}, payload)
	if err != nil {
		panic(err)
	}
	return frame
}

// TestAckWrittenWithMuFree: the receive path writes its ack with conn.mu
// released, like the drain its data — so a Send does not wait out the
// reader's system call — and still before the frame is delivered. A conn
// closed while the ack was on its way delivers nothing afterwards. The
// second half is the race detector's view of the window the unlock opens:
// senders and the reader at once.
func TestAckWrittenWithMuFree(t *testing.T) {
	clk := newManualClock()
	pc := &stampPC{clk: clk}
	var order []string
	c, err := DialVia(pc, stubPeer, Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9}},
		StartBudget: 1e9,
		Clock:       clk,
		OnMessage:   func(Message) { order = append(order, "deliver") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pc.conn = c
	pc.onAck = func() { order = append(order, "ack") }
	const frames = 50
	for i := int64(0); i < frames; i++ {
		c.handleDatagram(dataFrame(i, []byte("request")), stubPeer, 0)
		c.handleDatagram(dataFrame(i, []byte("request")), stubPeer, 0) // a duplicate is acked too
		clk.advance(100 * time.Microsecond)
	}
	if pc.acks != 2*frames || pc.heldAcks != 0 {
		t.Fatalf("%d acks for %d frames, %d of them written with conn.mu held; want %d and 0", pc.acks, 2*frames, pc.heldAcks, 2*frames)
	}
	if len(order) != 3*frames || order[0] != "ack" || order[1] != "deliver" || order[2] != "ack" {
		t.Fatalf("%d events starting %v, want ack, deliver, ack (the duplicate's) per frame", len(order), order[:min(len(order), 3)])
	}

	pc.onAck = func() { c.Close() } // from inside the write: mu must be free for it
	delivered := len(order)
	c.handleDatagram(dataFrame(frames, []byte("late")), stubPeer, 0)
	if c.State() != StateClosed || len(order) != delivered {
		t.Fatalf("state %v, %d deliveries after the close; want closed and none", c.State(), len(order)-delivered)
	}

	// Acks now leave concurrently with the drain's data frames, so this half
	// runs over the plain stubPC, which locks its own counters.
	c2, err := DialVia(&stubPC{}, stubPeer, Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9}},
		StartBudget: 1e9,
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if ok, err := c2.Send(1, []byte("concurrent")); err != nil || !ok {
					t.Error("send refused", err)
					return
				}
			}
		}()
	}
	for i := int64(0); i < 200; i++ {
		c2.handleDatagram(dataFrame(i, []byte("request")), stubPeer, 0)
	}
	wg.Wait()
	if got := c2.Stats(1).Received; got != 200 {
		t.Fatalf("received %d of 200 frames", got)
	}
}

// TestNoDatagramWrittenUnderMu: every datagram a conn writes — data, pure
// ack, NACK, ping and pong — leaves with conn.mu free, so no Send, reader or
// alarm waits out another's system call, and a transport may call back into
// the conn from inside its write.
func TestNoDatagramWrittenUnderMu(t *testing.T) {
	clk := newManualClock()
	pc := &stampPC{clk: clk}
	c, err := DialVia(pc, stubPeer, Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e9}},
		StartBudget: 1e9,
		Keepalive:   100 * time.Millisecond,
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pc.conn = c
	mustSend(t, c, 1, []byte("data"))
	c.handleDatagram(dataFrame(0, []byte("request")), stubPeer, 0) // no RTT sample: a pure ack at once
	c.handleDatagram(dataFrame(2, []byte("past a gap")), stubPeer, 0)
	ping, err := AppendFrame(nil, Header{Type: TypePing, SendMicro: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.handleDatagram(ping, stubPeer, 0)
	clk.advance(100 * time.Millisecond) // the keepalive probe
	for _, k := range []struct {
		typ  uint8
		name string
	}{{TypeData, "data"}, {TypeAck, "pure ack"}, {TypeNack, "NACK"}, {TypePing, "ping"}, {TypePong, "pong"}} {
		if pc.written[k.typ] == 0 || pc.heldBy[k.typ] != 0 {
			t.Errorf("%s: %d written, %d of them with conn.mu held; want some, and none held", k.name, pc.written[k.typ], pc.heldBy[k.typ])
		}
	}
}

// TestInlineDrainConcurrent is the race detector's view of the rule: several
// senders, a reader declaring losses and the clock's timers all make frames
// sendable at once, and every frame still leaves exactly once per
// transmission, in order of its queue.
func TestInlineDrainConcurrent(t *testing.T) {
	clk := newManualClock()
	c, pc := reliableConn(t, clk, 8)
	pc.conn = nil // TryLock from many goroutines would only measure contention
	const senders, each = 4, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if ok, err := c.Send(1, []byte("concurrent")); err != nil || !ok {
					t.Error("send refused", err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < each; i++ {
			c.handleDatagram(nackFor(int64(i%8)), stubPeer, 0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < each; i++ {
			clk.advance(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	// The manual clock fires a re-armed timer once per advance, so the
	// backlog the senders built drains one frame a step (short steps: a
	// sweep would find every unacked frame stale and queue it again).
	for i := 0; c.QueuedFrames() > 0 && i < 4*senders*each; i++ {
		clk.advance(10 * time.Microsecond)
	}
	if q := c.QueuedFrames(); q != 0 {
		t.Fatalf("%d frames stranded in the bands with nobody to transmit them", q)
	}
	st := c.Stats(1)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if want := int(st.Sent); pc.writes != want || st.Sent < 8+senders*each {
		t.Fatalf("%d writes for %d transmissions (%d first sends expected)", pc.writes, st.Sent, 8+senders*each)
	}
}

// TestSendInlineZeroAlloc is the allocation pin of the path this file is
// about: a keyed Send whose frame is due — admission, pooled copy, enqueue,
// pop, seal, transport write, release, all on the caller — allocates
// nothing, and arms no timer.
func TestSendInlineZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes escape analysis; alloc counts are enforced by the non-race pass")
	}
	clk := newManualClock()
	pc := &stubPC{}
	c, err := DialVia(pc, stubPeer, Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioHighest, Rate: 1e9}},
		StartBudget: 1e9,
		Clock:       clk,
		Key:         bytes.Repeat([]byte{7}, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 512)
	step := func() {
		before := pc.writes
		if ok, serr := c.Send(1, payload); serr != nil || !ok {
			t.Fatal("send refused", serr)
		}
		if pc.writes != before+1 {
			t.Fatal("frame was not on the transport when Send returned")
		}
		clk.advance(5 * time.Microsecond) // the gap is 4.4 µs: the rate is the budget's
	}
	for i := 0; i < 64; i++ {
		step()
	}
	mark := len(clk.arms)
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("inline keyed send allocates %.1f objects/op, want 0", allocs)
	}
	if arms := paceArms(clk, mark); len(arms) != 0 {
		t.Fatalf("inline sends armed timers %v", arms)
	}
}

// TestDeliverZeroAlloc pins the receive path's last copy away: a sealed,
// in-order data frame through handleDatagram — open in place, mark, owe its
// ack, deliver — reaches OnMessage as a loan of the datagram and allocates
// nothing.
func TestDeliverZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race")
	}
	seal, err := newSealer(benchKey)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 600)
	for i := range payload {
		payload[i] = byte(i)
	}
	delivered := 0
	c, err := DialVia(&stubPC{}, stubPeer, Config{Streams: ackStreams, StartBudget: 1e9, Clock: newManualClock(), Key: benchKey,
		OnMessage: func(m Message) {
			if got := binary.LittleEndian.Uint64(m.Payload); got != uint64(delivered) || len(m.Payload) != len(payload) || m.Payload[599] != payload[599] {
				t.Fatalf("delivery %d: frame %d, %d bytes", delivered, got, len(m.Payload))
			}
			delivered++
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var in []byte
	seq := int64(0)
	arrive := func() {
		h := Header{Type: TypeData, Stream: 2, Class: uint8(core.ClassCritical), Seq: seq, SendMicro: 1}
		binary.LittleEndian.PutUint64(payload, uint64(seq))
		if in, err = seal.appendSealedFrame(in[:0], h, payload); err != nil {
			t.Fatal(err)
		}
		c.handleDatagram(in, stubPeer, 0)
		seq++
	}
	for i := 0; i < 64; i++ {
		arrive()
	}
	if allocs := testing.AllocsPerRun(200, arrive); allocs != 0 {
		t.Errorf("in-order delivery: %.2f allocs/frame, want 0", allocs)
	}
	if delivered != int(seq) {
		t.Errorf("delivered %d of %d frames", delivered, seq)
	}
}
