package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/faults"
)

// reuseStorm drives total calls through cl on the system clock as chains
// that re-issue from inside done (so a completing call's state is handed
// straight to the next one), with deadlines cycling through ds. It checks
// what pooled call states could break: every done runs exactly once; a
// response is the echo of its own request; a timeout never comes earlier
// than the call's own deadline — a timer fire left over from the state's
// previous call would — and no other kind of error appears unless allowed.
func reuseStorm(t *testing.T, cl *Client, total, chains int, ds []time.Duration, allowed ...error) (oks, timeouts int64) {
	t.Helper()
	fired := make([]atomic.Int32, total)
	var next, nOK, nTimeout atomic.Int64
	var wg sync.WaitGroup
	var issue func()
	issue = func() {
		k := int(next.Add(1)) - 1
		if k >= total {
			wg.Done()
			return
		}
		req := make([]byte, 64)
		binary.LittleEndian.PutUint64(req, uint64(k)|1<<40)
		d := ds[k%len(ds)]
		t0 := time.Now()
		cl.CallAsync(methodEcho, req, core.PrioHighest, d, func(resp []byte, err error) {
			if n := fired[k].Add(1); n != 1 {
				t.Errorf("call %d: done ran %d times", k, n)
				return
			}
			switch {
			case err == nil:
				nOK.Add(1)
				if !bytes.Equal(resp, req) {
					t.Errorf("call %d: response %x is not its own request", k, resp[:8])
				}
			case errors.Is(err, ErrDeadline):
				nTimeout.Add(1)
				if el := time.Since(t0); el < d-100*time.Microsecond {
					t.Errorf("call %d: timed out after %v, before its own %v deadline", k, el, d)
				}
			default:
				ok := false
				for _, a := range allowed {
					ok = ok || errors.Is(err, a)
				}
				if !ok {
					t.Errorf("call %d: unexpected error %v", k, err)
				}
			}
			issue()
		})
	}
	wg.Add(chains)
	for i := 0; i < chains; i++ {
		go issue()
	}
	wg.Wait()
	for k := range fired {
		if n := fired[k].Load(); n != 1 {
			t.Errorf("call %d: done ran %d times, want 1", k, n)
		}
	}
	cl.mu.Lock()
	pending, free := len(cl.pending), len(cl.free)
	cl.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d request ids still pending after every call finished", pending)
	}
	if free == 0 || free > chains {
		t.Errorf("free list holds %d call states after %d calls, at most %d in flight", free, total, chains)
	}
	return nOK.Load(), nTimeout.Load()
}

// Ten thousand calls against a server that never answers (keepalive slowed
// so the session does not spend the test re-dialling): every one ends in
// its own timeout, through a handful of recycled states whose timers fire
// for real each time.
func TestCallStateReuseBlackholed(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	relay, err := faults.NewRelay(srv.Addr(), faults.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	relay.SetBlackhole(faults.Both, true)
	cl, err := Dial(relay.Addr(), ClientConfig{RequestRate: 1e9, StartBudget: 1e9, Keepalive: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const total = 10_000
	oks, timeouts := reuseStorm(t, cl, total, 16, []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond})
	if oks != 0 || timeouts != total {
		t.Errorf("%d ok, %d timeouts; want 0 and %d", oks, timeouts, total)
	}
	if st := cl.Stats(); st.Timeouts != total || st.Calls != total {
		t.Errorf("stats %+v, want %d calls and timeouts", st, total)
	}
}

// The same storm against a server that answers in about the time the short
// deadlines last, so responses race timeouts and Stop loses to a timer that
// has already fired: the fire it leaves in flight must be swallowed, not
// mistaken for the 50 ms call that took over the state.
func TestCallStateReuseRacingResponses(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, func(_ uint8, req []byte) []byte {
		time.Sleep(500 * time.Microsecond)
		return append([]byte(nil), req...)
	}, WithWorkers(32))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), ClientConfig{
		RequestRate: 1e9, StartBudget: 1e9,
		Retry: RetryPolicy{Max: 2, Backoff: 200 * time.Microsecond, MaxBackoff: time.Millisecond},
		Hedge: HedgePolicy{Delay: 400 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const total = 4_000
	oks, timeouts := reuseStorm(t, cl, total, 16,
		[]time.Duration{1200 * time.Microsecond, 50 * time.Millisecond, 800 * time.Microsecond, 50 * time.Millisecond},
		ErrCannotFinish, ErrServerExpired, ErrServerShed)
	t.Logf("%d ok, %d timeouts of %d; stats %+v", oks, timeouts, total, cl.Stats())
	if oks == 0 || timeouts == 0 {
		t.Errorf("%d ok, %d timeouts: the storm must produce both for responses to race timers", oks, timeouts)
	}
}

// Blocking calls park on recycled waiters: eight goroutines calling in a
// loop must each get their own answers back.
func TestCallPriConcurrentWaiters(t *testing.T) {
	_, cl := newPair(t, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := make([]byte, 16)
			for i := 0; i < 200; i++ {
				binary.LittleEndian.PutUint32(req, uint32(g))
				binary.LittleEndian.PutUint32(req[4:], uint32(i))
				resp, err := cl.CallPri(methodEcho, req, core.PrioHighest, 3*time.Second)
				if err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(resp, req) {
					t.Errorf("goroutine %d call %d: got goroutine %d call %d's answer", g, i,
						binary.LittleEndian.Uint32(resp), binary.LittleEndian.Uint32(resp[4:]))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// lateTimer is a timer whose callback has always already started: Stop
// and Reset report false, as time.Timer does once the runtime has launched
// the function's goroutine.
type lateTimer struct{}

func (lateTimer) Stop() bool               { return false }
func (lateTimer) Reset(time.Duration) bool { return false }

// A Stop that comes too late leaves one fire in flight. It arrives after
// the timer has been re-armed — for the next attempt, or for the next call
// through the recycled state — and must not be taken for the new arm's.
func TestCallTimerSwallowsOwedFire(t *testing.T) {
	ct := callTimer{t: lateTimer{}, fn: func() {}}
	ct.arm(nil, time.Millisecond)
	ct.stop() // too late: one fire owed
	ct.stop() // not armed: no second debt
	if ct.fired() {
		t.Fatal("owed fire passed while the timer was idle")
	}
	ct.arm(nil, time.Millisecond)
	ct.stop()
	ct.arm(nil, time.Millisecond) // the next call's arm, with a fire still owed
	if ct.fired() {
		t.Fatal("the fire a late Stop left in flight was taken for the new arm's")
	}
	if !ct.fired() {
		t.Fatal("the armed fire was swallowed")
	}
	if ct.fired() {
		t.Fatal("a fire passed with the timer disarmed and nothing owed")
	}
}

// Response copies carved from one block are the caller's own: each holds
// its bytes after the lent buffer is overwritten, an append to one leaves
// its neighbour alone, an empty body stays non-nil and a body above
// slabResp gets a block of its own.
func TestResponseCopiesAreIndependent(t *testing.T) {
	var c Client
	lent := make([]byte, slabResp+1)
	var got [][]byte
	for i := 0; i < 3*slabSize/slabResp; i++ {
		n := 1 + i%slabResp
		for j := range lent[:n] {
			lent[j] = byte(i)
		}
		got = append(got, c.copyLocked(lent[:n]))
	}
	for j := range lent {
		lent[j] = 0xDB
	}
	for i := range got {
		_ = append(got[i], 0xEE)
	}
	for i, b := range got {
		if want := bytes.Repeat([]byte{byte(i)}, 1+i%slabResp); !bytes.Equal(b, want) {
			t.Fatalf("copy %d reads % x, want % x", i, b, want)
		}
	}
	if b := c.copyLocked(lent[:0]); b == nil || len(b) != 0 {
		t.Errorf("empty body copied to %#v, want a non-nil empty slice", b)
	}
	rest := len(c.slab)
	if b := c.copyLocked(lent); !bytes.Equal(b, lent) || len(c.slab) != rest {
		t.Errorf("a %d-byte body took %d bytes of the block", len(lent), rest-len(c.slab))
	}
}
