package marsim

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/overload"
	"marnet/internal/phy"
	"marnet/internal/rpc"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

// callRig is the steady-state offloaded call on virtual time: one client,
// one server with a modeled service time, AEAD on, a loss-free link, so
// every call is the same four datagrams (request, its ack, response, its
// ack) and every per-call object is the stack's own.
type callRig struct {
	s        *Scenario
	host     *Host
	cl       *rpc.Client
	srv      *rpc.Server
	req      []byte
	done     func([]byte, error)
	oks      int
	lastErr  error
	deadline time.Duration
}

// newCallRig makes the rig; attempts is the client's attempt budget per
// call, hedge its hedge delay (0: no hedging).
func newCallRig(tb testing.TB, gate overload.Config, attempts int, hedge time.Duration) *callRig {
	tb.Helper()
	key := []byte("0123456789abcdef")
	link := phy.Profile{Name: "pin", Up: 100e6, Down: 100e6, OneWay: time.Millisecond}
	r := &callRig{s: NewScenario("callrig", 1), req: make([]byte, 600), deadline: 75 * time.Millisecond}
	resp := make([]byte, 64)
	ep := r.s.Net.NewEndpoint("server", link)
	srv, err := rpc.NewServer("sim", key,
		func(uint8, []byte) []byte { return resp },
		rpc.WithPacketConn(ep),
		rpc.WithClock(r.s.Clock),
		rpc.WithWorkers(4),
		rpc.WithOverload(gate),
		rpc.WithServiceModel(func(uint8, []byte) time.Duration { return time.Millisecond }))
	if err != nil {
		tb.Fatal(err)
	}
	r.srv = srv
	r.host = r.s.Net.NewHost("mobile", link)
	r.cl, err = rpc.Dial("sim://server", rpc.ClientConfig{
		Key: key, Clock: r.s.Clock, Dialer: r.host.Dialer(ep), Seed: 2,
		RequestRate: 1e9, StartBudget: 1e9, Retry: rpc.RetryPolicy{Max: attempts},
		Hedge: rpc.HedgePolicy{Delay: hedge},
	})
	if err != nil {
		tb.Fatal(err)
	}
	r.done = func(_ []byte, err error) {
		if err == nil {
			r.oks++
		}
		r.lastErr = err
	}
	tb.Cleanup(func() {
		r.cl.Close()  //nolint:errcheck // teardown
		r.srv.Close() //nolint:errcheck // teardown
	})
	return r
}

// raceBuild reports whether the race detector is compiled in, by its one
// effect visible from here: wire poisons receive buffers only then.
func raceBuild() bool {
	probe := []byte{0}
	wire.PoisonBuf(probe)
	return probe[0] != 0
}

// skipAllocPinUnderRace: wire's sync.Pools drop a quarter of their puts
// under the race detector, so object counts mean nothing there.
func skipAllocPinUnderRace(t *testing.T) {
	t.Helper()
	if raceBuild() {
		t.Skip("sync.Pool sheds entries at random under the race detector; the plain test pass enforces the count")
	}
}

// call issues one CallAsync and runs virtual time until it (and the acks
// trailing it) have settled.
func (r *callRig) call() {
	r.cl.CallAsync(methodRecognize, r.req, core.PrioHighest, r.deadline, r.done)
	r.s.Sim.RunUntil(r.s.Sim.Now() + 20*time.Millisecond) //nolint:errcheck // horizon is unreachable in 20 ms
}

// A full CallAsync round trip on the simulator — seal, uplink, route,
// downlink, open, gate, handler, modeled service, and the whole way back —
// allocates only what leaves the stack: the response copy the caller keeps
// (it measures 1; the request is copied into the server's pooled call
// record, and the bound leaves room for a handler's own result and a pool
// refill). The handler here returns a shared slice, so its result is not
// in the count.
func TestSimCallAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	r := newCallRig(t, overload.Config{}, 1, 0)
	for i := 0; i < 200; i++ {
		r.call()
	}
	if r.oks != 200 {
		t.Fatalf("warm-up: %d/200 calls ok, last error %v", r.oks, r.lastErr)
	}
	if got := testing.AllocsPerRun(200, r.call); got > 3 {
		t.Errorf("steady-state call allocates %.1f objects, want <= 3", got)
	}
	if r.lastErr != nil {
		t.Fatalf("measured calls failed: %v", r.lastErr)
	}
}

// holdRequest delays the next n request datagrams onto the uplink by
// hold: a request is the only datagram the client sends that is longer
// than an ack.
type holdRequest struct {
	n    int
	hold time.Duration
}

func (h *holdRequest) Filter(pkt *simnet.Packet, _ time.Duration) simnet.Verdict {
	if h.n == 0 || pkt.Size < 300 {
		return simnet.Verdict{}
	}
	h.n--
	return simnet.Verdict{ExtraDelay: h.hold}
}

// A call whose first attempt times out and whose retry succeeds allocates
// no more than TestSimCallAllocs' call: the timed-out attempt's error is
// formatted only when a call ends with it, so a retry that follows costs
// none. The first request is held 40 ms, past its 37.5 ms share of the
// deadline; its late answer arrives during the backoff and is dropped.
func TestSimRetriedCallAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	r := newCallRig(t, overload.Config{}, 2, 0)
	hold := &holdRequest{hold: 40 * time.Millisecond}
	r.host.SetUplinkFilter(hold)
	retried := func() {
		hold.n = 1
		r.cl.CallAsync(methodRecognize, r.req, core.PrioHighest, r.deadline, r.done)
		r.s.Sim.RunUntil(r.s.Sim.Now() + 150*time.Millisecond) //nolint:errcheck // horizon is unreachable in 150 ms
	}
	for i := 0; i < 50; i++ {
		retried()
	}
	if st := r.cl.Stats(); r.oks != 50 || st.Retries != 50 || st.Timeouts != 0 {
		t.Fatalf("warm-up: %d/50 calls ok with %d retries and %d timed out, last error %v; want each call retried once and ok",
			r.oks, st.Retries, st.Timeouts, r.lastErr)
	}
	if got := testing.AllocsPerRun(100, retried); got > 3 {
		t.Errorf("a call retried after a timeout allocates %.1f objects, want <= 3", got)
	}
	if st := r.cl.Stats(); r.oks != 151 || st.Retries != 151 {
		t.Fatalf("measured calls: %d/151 ok with %d retries, last error %v", r.oks, st.Retries, r.lastErr)
	}
}

// A call the gate refuses at the door (its estimate says the work cannot
// finish in the budget) costs only pooled records: the typed refusal
// carries no body for the caller to keep (it measures 0).
func TestSimRejectedCallAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	r := newCallRig(t, overload.Config{}, 1, 0)
	r.srv.Gate().Estimator().Observe(methodRecognize, time.Second)
	for i := 0; i < 200; i++ {
		r.call()
	}
	if r.oks != 0 || !errors.Is(r.lastErr, rpc.ErrCannotFinish) {
		t.Fatalf("warm-up: %d calls ok, last error %v, want every call refused as cannot-finish", r.oks, r.lastErr)
	}
	if got := testing.AllocsPerRun(200, r.call); got > 2 {
		t.Errorf("refused call allocates %.1f objects, want <= 2", got)
	}
}

// BenchmarkSimCall is the cost of one simulated offloaded call, all
// layers, in wall ns and heap objects.
func BenchmarkSimCall(b *testing.B) {
	r := newCallRig(b, overload.Config{}, 1, 0)
	for i := 0; i < 200; i++ {
		r.call()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.call()
	}
	b.StopTimer()
	if r.oks != 200+b.N {
		b.Fatalf("%d/%d calls ok, last error %v", r.oks, 200+b.N, r.lastErr)
	}
}

// requestLog notes the virtual instant each request datagram starts onto
// the uplink, and holds them as its holdRequest says.
type requestLog struct {
	holdRequest
	at []time.Duration
}

func (l *requestLog) Filter(pkt *simnet.Packet, now time.Duration) simnet.Verdict {
	if pkt.Size >= 300 {
		l.at = append(l.at, now)
	}
	return l.holdRequest.Filter(pkt, now)
}

// TestSimCallEngineTiming pins, on virtual time, the instants the call
// engine acts at for a call with two attempts and a hedge: the hedge
// leaves exactly its delay after the attempt starts, the attempt times out
// exactly at its share of the deadline, the retry starts after the backoff
// the client's seed draws from [b/2, b], and a response that races the
// hedge completes the call once.
func TestSimCallEngineTiming(t *testing.T) {
	const (
		hedge   = 10 * time.Millisecond
		backoff = 20 * time.Millisecond // RetryPolicy's default first backoff
	)
	r := newCallRig(t, overload.Config{}, 2, hedge)
	log := &requestLog{}
	r.host.SetUplinkFilter(log)
	var dones, oks int
	var doneAt time.Duration
	done := func(_ []byte, err error) {
		dones++
		doneAt = r.s.Sim.Now()
		if err == nil {
			oks++
		} else {
			t.Errorf("call failed: %v", err)
		}
	}
	settle := func() { r.s.Sim.RunUntil(r.s.Sim.Now() + 200*time.Millisecond) } //nolint:errcheck // horizon is unreachable

	// An unheld call answers well inside the hedge delay: no hedge.
	t0 := r.s.Sim.Now()
	r.cl.CallAsync(methodRecognize, r.req, core.PrioHighest, r.deadline, done)
	settle()
	rtt := doneAt - t0
	if dones != 1 || len(log.at) != 1 || log.at[0] != t0 || rtt >= hedge || r.cl.Stats().Hedges != 0 {
		t.Fatalf("unheld call: %d dones, requests at %v (issued at %v), answered in %v, %d hedges; want one request at issue, answered inside %v, no hedge",
			dones, log.at, t0, rtt, r.cl.Stats().Hedges, hedge)
	}

	// Both requests of the first attempt held past its share: the hedge
	// leaves at t0+hedge, the attempt times out at t0+deadline/2, and the
	// retry leaves after the seeded backoff.
	log.at, log.n, log.hold = nil, 2, 60*time.Millisecond
	t0 = r.s.Sim.Now()
	per := r.deadline / 2
	r.cl.CallAsync(methodRecognize, r.req, core.PrioHighest, r.deadline, done)
	r.s.Sim.RunUntil(t0 + per - 1) //nolint:errcheck // horizon is unreachable
	if st := r.cl.Stats(); st.Hedges != 1 || st.Retries != 0 || len(log.at) != 2 || log.at[1]-t0 != hedge {
		t.Fatalf("before the attempt's share: %d hedges, %d retries, requests at %v from %v; want the hedge alone, at +%v",
			st.Hedges, st.Retries, log.at, t0, hedge)
	}
	r.s.Sim.RunUntil(t0 + per) //nolint:errcheck // horizon is unreachable
	if st := r.cl.Stats(); st.Retries != 1 {
		t.Fatalf("at the attempt's share %v: %d retries, want the timeout to have scheduled one", per, st.Retries)
	}
	settle()
	seeded := backoff/2 + time.Duration(rand.New(rand.NewSource(2)).Int63n(int64(backoff/2)+1))
	// (Requests after the third are the conn retransmitting the held
	// frames once the server reports the gap; the rpc layer drops their
	// answers.)
	if len(log.at) < 3 || dones != 2 || oks != 2 {
		t.Fatalf("retried call: requests at %v, %d dones, %d ok; want a third request and the call ok once", log.at, dones, oks)
	}
	if wait := log.at[2] - (t0 + per); wait < backoff/2 || wait > backoff || wait != seeded {
		t.Errorf("the retry left %v after the timeout, want the seeded %v in [%v, %v]", wait, seeded, backoff/2, backoff)
	}
	if st := r.cl.Stats(); st.Hedges != 1 || st.Timeouts != 0 {
		t.Errorf("retried call: %d hedges, %d timeouts; want the first attempt's hedge only and no timeout", st.Hedges, st.Timeouts)
	}

	// The first request held so its answer lands around the hedge's
	// instant, from a few microseconds before it to well after: each call
	// completes exactly once, and the hedge leaves only when the answer is
	// not in yet. (A held call answers a few microseconds later than the
	// hold alone says, so the sweep is wide enough to tie with the hedge.)
	skews := []time.Duration{rtt / 2}
	for us := -8; us <= 8; us++ {
		skews = append(skews, time.Duration(us)*time.Microsecond)
	}
	var before, tie, after bool
	for _, skew := range skews {
		calls, hedges := dones, r.cl.Stats().Hedges
		log.n, log.hold = 1, hedge-rtt+skew
		t0 = r.s.Sim.Now()
		r.cl.CallAsync(methodRecognize, r.req, core.PrioHighest, r.deadline, done)
		settle()
		landed, launched := doneAt-t0, r.cl.Stats().Hedges-hedges
		if dones != calls+1 || oks != dones {
			t.Fatalf("answer landing %v after issue: %d dones for one call, %d of %d ok", landed, dones-calls, oks, dones)
		}
		switch {
		case landed < hedge:
			before = true
			if launched != 0 {
				t.Errorf("answer landing %v after issue, before the hedge's %v: %d hedges launched", landed, hedge, launched)
			}
		case landed > hedge:
			after = true
			if launched != 1 {
				t.Errorf("answer landing %v after issue, past the hedge's %v: %d hedges launched, want 1", landed, hedge, launched)
			}
		default:
			tie = true
		}
	}
	if !before || !tie || !after {
		t.Errorf("answers landed before the hedge: %v, at its instant: %v, after it: %v; the sweep must cover all three", before, tie, after)
	}
}
