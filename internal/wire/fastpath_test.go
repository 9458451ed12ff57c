package wire

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/vclock"
)

// manualClock is a hand-driven vclock.Clock whose timers support in-place
// Reset, so these tests exercise the same allocation-free Rearm chains the
// production pace loop uses. arms records the delay of every AfterFunc and
// Reset, in order, so a test can say exactly which timers the protocol asked
// for.
type manualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*manualTimer
	arms   []time.Duration
}

type manualTimer struct {
	c     *manualClock
	when  time.Time
	fn    func()
	armed bool
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1_000_000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *manualClock) AfterFunc(d time.Duration, fn func()) vclock.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTimer{c: c, when: c.now.Add(d), fn: fn, armed: true}
	c.timers = append(c.timers, t)
	c.arms = append(c.arms, d)
	return t
}

func (t *manualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.armed
	t.armed = false
	return was
}

func (t *manualTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.armed
	t.when = t.c.now.Add(d)
	t.armed = true
	t.c.arms = append(t.c.arms, d)
	return was
}

// untilNextTimer is how far away the earliest armed timer is.
func (c *manualClock) untilNextTimer() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var d time.Duration
	for _, t := range c.timers {
		if w := t.when.Sub(c.now); t.armed && (d == 0 || w < d) {
			d = w
		}
	}
	return d
}

// advance moves virtual time forward and runs every timer that came due,
// in scheduling order. It allocates nothing in steady state: due timers
// are collected into a reusable scratch slice.
func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
	for {
		c.mu.Lock()
		var next *manualTimer
		for _, t := range c.timers {
			if t.armed && !t.when.After(c.now) && (next == nil || t.when.Before(next.when)) {
				next = t
			}
		}
		if next != nil {
			next.armed = false
		}
		c.mu.Unlock()
		if next == nil {
			return
		}
		next.fn()
	}
}

// stubPC is a synchronous PacketConn that counts writes and (optionally)
// records datagram copies. A conn's drain hands it one frame per
// WriteToUDP, as it does every transport.
type stubPC struct {
	mu     sync.Mutex
	writes int
	record bool
	frames [][]byte
}

func (p *stubPC) WriteToUDP(b []byte, _ *net.UDPAddr) (int, error) {
	p.mu.Lock()
	p.writes++
	if p.record {
		p.frames = append(p.frames, append([]byte(nil), b...))
	}
	p.mu.Unlock()
	return len(b), nil
}

func (p *stubPC) LocalAddr() net.Addr                                    { return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1} }
func (p *stubPC) Close() error                                           { return nil }
func (p *stubPC) Start(func(pkt []byte, from *net.UDPAddr, backlog int)) {}

var stubPeer = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}

// TestSendSteadyStateZeroAlloc is the fast path's enforcement test: once
// the pools and the pace-timer chain are warm, a best-effort send —
// admission, pooled copy, enqueue, header encode, transport write, buffer
// release — performs zero heap allocations, both for the frame that is due
// and leaves on the caller and for the one behind it that waits out the
// gap on the re-armed pace timer. A regression here is a regression in
// per-frame cost at saturation, so it fails the build rather than just a
// benchmark trend.
func TestSendSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes escape analysis; alloc counts are enforced by the non-race pass")
	}
	clk := newManualClock()
	pc := &stubPC{}
	c, err := DialVia(pc, stubPeer, Config{
		Streams: []StreamSpec{{
			ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioHighest, Rate: 1e9,
		}},
		StartBudget: 1e9,
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := make([]byte, 512)
	step := func() {
		for i := 0; i < 2; i++ { // the first leaves inline, the second is timed
			if ok, serr := c.Send(1, payload); serr != nil || !ok {
				t.Fatal("send refused", serr)
			}
		}
		// Each 5 µs covers one ~4.3 µs budget gap of a 512 B frame at
		// 1 Gb/s: the first fires exactly the pace timer (the 50 ms sweep
		// stays far away), the second makes the next step's first frame due.
		clk.advance(5 * time.Microsecond)
		clk.advance(5 * time.Microsecond)
	}
	for i := 0; i < 64; i++ { // warm pools, queue capacity, timer chain
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state send allocates %.1f objects/op, want 0", allocs)
	}
	if pc.writes < 528 || c.QueuedFrames() != 0 {
		t.Fatalf("transport saw %d writes with %d frames still queued, want ≥528 and 0 (every send must reach the wire)", pc.writes, c.QueuedFrames())
	}
}

// TestSendSteadyStateZeroAllocSealed is the same contract with AES-GCM
// sealing on: the counter-based nonce and the in-place appendSealedFrame
// must keep even the encrypting path allocation-free.
func TestSendSteadyStateZeroAllocSealed(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes escape analysis; alloc counts are enforced by the non-race pass")
	}
	clk := newManualClock()
	pc := &stubPC{}
	c, err := DialVia(pc, stubPeer, Config{
		Streams: []StreamSpec{{
			ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioHighest, Rate: 1e9,
		}},
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
		for i := 0; i < 2; i++ {
			if ok, serr := c.Send(1, payload); serr != nil || !ok {
				t.Fatal("send refused", serr)
			}
		}
		clk.advance(5 * time.Microsecond)
		clk.advance(5 * time.Microsecond)
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("sealed steady-state send allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFrameQueueBoundedUnderSustainedBacklog pins the compaction rule:
// a queue that never fully drains (the saturation regime QueuedFrames is
// documented to maintain) must keep its backing array bounded by the
// backlog high-water mark, not grow with cumulative throughput.
func TestFrameQueueBoundedUnderSustainedBacklog(t *testing.T) {
	var q frameQueue
	const backlog = 64
	seq := int64(0)
	for i := 0; i < backlog; i++ {
		q.push(outFrame{hdr: Header{Seq: seq}})
		seq++
	}
	next := int64(0) // FIFO order must survive compaction
	for i := 0; i < 100_000; i++ {
		q.push(outFrame{hdr: Header{Seq: seq}})
		seq++
		f := q.pop()
		if f.hdr.Seq != next {
			t.Fatalf("pop %d: seq = %d, want %d (order broken by compaction)", i, f.hdr.Seq, next)
		}
		next++
	}
	if got := cap(q.buf); got > 4*backlog {
		t.Fatalf("backing array grew to %d slots for a standing backlog of %d", got, backlog)
	}
	if q.len() != backlog {
		t.Fatalf("len = %d, want %d", q.len(), backlog)
	}
}

// TestSendCopiesPayload pins the pooling refactor to the old contract:
// Send takes a private copy, so the caller may reuse its buffer
// immediately even though the copy now lives in a pooled buffer.
func TestSendCopiesPayload(t *testing.T) {
	clk := newManualClock()
	pc := &stubPC{record: true}
	c, err := DialVia(pc, stubPeer, Config{
		Streams: []StreamSpec{{
			ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioHighest, Rate: 1e9,
		}},
		StartBudget: 1e9,
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	buf := bytes.Repeat([]byte{0xAA}, 100)
	if ok, serr := c.Send(1, buf); serr != nil || !ok {
		t.Fatal("send refused", serr)
	}
	for i := range buf { // caller scribbles before the frame is paced out
		buf[i] = 0x55
	}
	clk.advance(time.Millisecond)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if len(pc.frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(pc.frames))
	}
	_, payload, derr := DecodeFrame(pc.frames[0])
	if derr != nil {
		t.Fatal(derr)
	}
	if !bytes.Equal(payload, bytes.Repeat([]byte{0xAA}, 100)) {
		t.Fatal("wire frame reflects the caller's post-Send scribble: Send did not copy")
	}
}

// TestNackChunking drives the gap-list sender with more missing sequences
// than one frame can carry and verifies every chunk is a decodable,
// in-order NACK with no entry lost at the MaxNackEntries boundary.
func TestNackChunking(t *testing.T) {
	n := newCoreNet(0)
	c := n.end(Config{Streams: []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest}}, StartBudget: 1e9})

	missing := make([]int64, 2*MaxNackEntries+5)
	for i := range missing {
		missing[i] = int64(i)
	}
	c.core.oweNack(n.now, 1, missing)
	c.writeControl()

	if len(c.written) != 3 {
		t.Fatalf("%d NACK frames, want 3 (149+149+5 entries)", len(c.written))
	}
	var got []int64
	for i, frame := range c.written {
		h, payload, derr := DecodeFrame(frame)
		if derr != nil || h.Type != TypeNack {
			t.Fatalf("chunk %d: %v type %d", i, derr, h.Type)
		}
		seqs, nerr := DecodeNackPayload(payload)
		if nerr != nil {
			t.Fatalf("chunk %d payload: %v", i, nerr)
		}
		got = append(got, seqs...)
	}
	if len(got) != len(missing) {
		t.Fatalf("round-tripped %d entries, want %d", len(got), len(missing))
	}
	for i := range got {
		if got[i] != missing[i] {
			t.Fatalf("entry %d = %d, want %d", i, got[i], missing[i])
		}
	}
}

// TestNackPayloadClampProperty is the satellite property test for the
// NACK codec: for arbitrary gap lists the encoder's output always fits a
// frame, decodes back to the clamped prefix exactly, and the decoder
// rejects counts no conforming encoder can emit.
func TestNackPayloadClampProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(2 * MaxNackEntries)
		missing := make([]int64, n)
		for i := range missing {
			missing[i] = rng.Int63() - rng.Int63()
		}
		p := AppendNackPayload(nil, missing)
		if len(p) > MaxPayload {
			t.Fatalf("trial %d: encoded %d entries into %d bytes > MaxPayload", trial, n, len(p))
		}
		got, err := DecodeNackPayload(p)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		want := missing
		if len(want) > MaxNackEntries {
			want = want[:MaxNackEntries]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d entries, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d entry %d: %d != %d", trial, i, got[i], want[i])
			}
		}
	}
	// A count above the clamp cannot come from a conforming encoder.
	over := AppendNackPayload(nil, make([]int64, MaxNackEntries))
	over[0], over[1] = byte(MaxNackEntries+1), byte((MaxNackEntries+1)>>8)
	if _, err := DecodeNackPayload(over); err == nil {
		t.Fatal("decoder accepted a NACK count above MaxNackEntries")
	}
}
