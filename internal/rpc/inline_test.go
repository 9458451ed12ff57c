package rpc

import (
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/vclock"
	"marnet/internal/wire"
)

// burst issues n calls of method back to back from one goroutine, so their
// requests reach the server's reader together, and waits for every answer.
// It returns the longest time any call of cheap took, counted from before
// the first request was issued.
func burst(t *testing.T, cl *Client, methods []uint8, cheap uint8) time.Duration {
	t.Helper()
	var wg sync.WaitGroup
	var worst atomic.Int64
	req := []byte("frame")
	t0 := time.Now()
	wg.Add(len(methods))
	for _, method := range methods {
		method := method
		cl.CallAsync(method, req, core.PrioHighest, 2*time.Second, func(_ []byte, err error) {
			defer wg.Done()
			if err != nil {
				t.Errorf("method %d: %v", method, err)
			}
			if method == cheap {
				for took := int64(time.Since(t0)); ; {
					old := worst.Load()
					if took <= old || worst.CompareAndSwap(old, took) {
						break
					}
				}
			}
		})
	}
	wg.Wait()
	return time.Duration(worst.Load())
}

// A request that arrives alone is served by the pool, however cheap: the
// reader goes back to the socket while a slot's goroutine answers. Eight calls
// issued together arrive as one read batch, and the cheap ones among them
// are answered by the reader itself.
func TestBackloggedCheapCallsServedInline(t *testing.T) {
	srv, cl := newPair(t, nil)
	for i := 0; i < 20; i++ {
		if _, err := cl.Call(methodEcho, []byte("frame"), 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Served != 20 || st.Inline != 0 {
		t.Fatalf("lone blocking calls: served %d, inline %d; want 20 served, none inline", st.Served, st.Inline)
	}
	eight := []uint8{methodEcho, methodEcho, methodEcho, methodEcho, methodEcho, methodEcho, methodEcho, methodEcho}
	for end := time.Now().Add(5 * time.Second); srv.Stats().Inline == 0 && time.Now().Before(end); {
		burst(t, cl, eight, methodEcho)
	}
	st := srv.Stats()
	if st.Inline == 0 {
		t.Fatalf("eight calls in flight, %d served: none on the reader", st.Served)
	}
	t.Logf("served %d, inline %d", st.Served, st.Inline)
}

// A 5 ms method is never served on the reader, even when it arrives at the
// head of a backlogged batch: its estimate is far over the inline line, so
// it goes to the pool and the cheap requests read behind it are answered
// without waiting for it.
func TestSlowMethodNeverServedInline(t *testing.T) {
	const slow = 5 * time.Millisecond
	srv, err := NewServer("127.0.0.1:0", nil, func(method uint8, req []byte) []byte {
		if method == methodSleep {
			time.Sleep(slow)
		}
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), ClientConfig{RequestRate: 1e9, StartBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// One call of each teaches the gate both costs.
	for _, m := range []uint8{methodSleep, methodEcho} {
		if _, err := cl.Call(m, []byte("frame"), 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	round := []uint8{methodSleep, methodEcho, methodEcho, methodEcho, methodEcho, methodEcho, methodEcho, methodEcho, methodEcho}
	rounds, delayed := 0, 0
	for ; rounds < 40 || srv.Stats().Inline == 0 && rounds < 400; rounds++ {
		if burst(t, cl, round, methodEcho) >= slow {
			delayed++
		}
	}
	st := srv.Stats()
	if st.Inline == 0 {
		t.Fatalf("%d rounds never backlogged the reader: nothing was served inline", rounds)
	}
	if delayed > rounds/4 {
		t.Fatalf("%d of %d rounds answered a cheap call %v or later: the slow call ahead of them held the reader", delayed, rounds, slow)
	}
	if slowServed := st.Served - st.Inline; slowServed < int64(rounds) {
		t.Fatalf("served %d, %d of them inline: fewer than the %d slow calls left for the pool", st.Served, st.Inline, rounds)
	}
	t.Logf("%d rounds, %d with a cheap call %v or later; served %d, inline %d", rounds, delayed, slow, st.Served, st.Inline)
}

// sinkPC is a transport that discards what is written to it and delivers
// only what a test hands its recv.
type sinkPC struct {
	mu     sync.Mutex
	writes int
	recv   func(pkt []byte, from *net.UDPAddr, backlog int)
}

func (p *sinkPC) WriteToUDP(b []byte, _ *net.UDPAddr) (int, error) {
	p.mu.Lock()
	p.writes++
	p.mu.Unlock()
	return len(b), nil
}

func (p *sinkPC) written() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writes
}

func (p *sinkPC) LocalAddr() net.Addr { return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9} }
func (p *sinkPC) Close() error        { return nil }
func (p *sinkPC) Start(recv func(pkt []byte, from *net.UDPAddr, backlog int)) {
	p.recv = recv
}

// stepClock is a hand-advanced clock whose timers never fire.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

type idleTimer struct{}

func (idleTimer) Stop() bool               { return false }
func (idleTimer) Reset(time.Duration) bool { return false }

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Since(t time.Time) time.Duration              { return c.Now().Sub(t) }
func (c *stepClock) AfterFunc(time.Duration, func()) vclock.Timer { return idleTimer{} }

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// steadyGoroutines is runtime.NumGoroutine once it has read the same for
// 20 ms running: a goroutine an earlier test left behind may still be on
// its way out, and one that exits inside a measured window would read as
// the window's own doing.
func steadyGoroutines(t *testing.T) int {
	t.Helper()
	n, since := runtime.NumGoroutine(), time.Now()
	deadline := since.Add(5 * time.Second)
	for time.Since(since) < 20*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("the goroutine count did not settle in 5 s (now %d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// TestServeInlineZeroAlloc is the allocation pin of the inline serve: a
// cheap request delivered with a backlog is admitted, handled, answered on
// the transport and settled with the gate before onMessage returns, on the
// calling goroutine — no goroutine started, no closure allocated, nothing
// on the heap at all.
func TestServeInlineZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes escape analysis; alloc counts are enforced by the non-race pass")
	}
	epoch := time.Unix(1_000_000, 0)
	clk := &stepClock{now: epoch}
	pc := &sinkPC{}
	resp := make([]byte, 32)
	var handled int
	srv, err := NewServer("sink", nil, func(uint8, []byte) []byte {
		handled++
		return resp
	}, WithPacketConn(pc), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 2), Port: 4000}
	ping, err := wire.AppendFrame(nil, wire.Header{Type: wire.TypePing}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pc.recv(ping, peer, 0) // the peer's first datagram makes its conn
	conns := ServerConns(srv)
	if len(conns) != 1 {
		t.Fatalf("%d server conns after the first datagram, want 1", len(conns))
	}
	srv.Gate().Estimator().Observe(methodEcho, time.Microsecond)

	req := make([]byte, reqHeader+64)
	req[8], req[9] = methodEcho, byte(core.PrioHighest)
	binary.LittleEndian.PutUint32(req[10:], 75_000) // 75 ms of budget
	m := wire.Message{Stream: reqStream, Payload: req, Conn: conns[0], Backlog: 1}
	// The peer acknowledges each response at the instant it leaves (no RTT
	// sample, so the budget holds still), which hands the response's
	// pooled records back as a live exchange does.
	ranges := make([]wire.AckRange, 1)
	ackBlock := make([]byte, 0, 64)
	ack := make([]byte, 0, 128)
	var id uint64
	step := func() {
		clk.advance(time.Millisecond) // every response is due at once
		binary.LittleEndian.PutUint64(req, id)
		wantHandled, wantWrites := handled+1, pc.written()+1
		srv.onMessage(m)
		if handled != wantHandled || pc.written() != wantWrites {
			t.Fatalf("onMessage returned with the handler run %d times and %d responses written, want %d and %d",
				handled, pc.written(), wantHandled, wantWrites)
		}
		ranges[0] = wire.AckRange{Stream: respStream, First: int64(id), Run: 1}
		echo := uint64(clk.Now().Sub(epoch).Microseconds())
		ack, _ = wire.AppendFrame(ack[:0], wire.Header{Type: wire.TypeAck, Acks: wire.AppendAckBlock(ackBlock[:0], echo, 0, ranges)}, nil)
		pc.recv(ack, peer, 0)
		id++
	}
	for i := 0; i < 64; i++ {
		step()
	}
	goroutines := steadyGoroutines(t)
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("inline serve allocates %.1f objects per call, want 0", allocs)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Fatalf("%d goroutines after the inline serves, %d before", n, goroutines)
	}
	if st := srv.Stats(); st.Inline != st.Served || st.Served != int64(handled) {
		t.Fatalf("stats %+v after %d handler runs: every call should be served inline", st, handled)
	}
}
