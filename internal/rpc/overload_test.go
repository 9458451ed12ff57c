package rpc

import (
	"errors"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/faults"
	"marnet/internal/overload"
)

// The server maps each request's core.Priority onto one of the gate's
// admission tiers; overload keeps its own count so it stays free of core,
// and the two must agree or a priority lands in the wrong tier.
func TestAdmissionTiersMatchPriorities(t *testing.T) {
	if overload.Tiers != core.AdmissionTiers {
		t.Fatalf("overload.Tiers = %d, core.AdmissionTiers = %d", overload.Tiers, core.AdmissionTiers)
	}
}

// TestServerExpiredOnArrival sends a call whose budget is smaller than the
// one-way network delay: by the time the request reaches the server, its
// deadline is unmeetable, and the server must refuse it before dispatch —
// counted distinctly from every other rejection.
func TestServerExpiredOnArrival(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	slow := faults.DirConfig{Delay: 20 * time.Millisecond}
	relay, err := faults.NewRelay(srv.Addr(), faults.Config{Up: slow, Down: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	cl, err := Dial(relay.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Establish the RTT estimate with a comfortably-budgeted call.
	if _, err := cl.Call(methodEcho, []byte("warm"), 2*time.Second); err != nil {
		t.Fatalf("warmup call: %v", err)
	}

	// 10 ms of budget cannot survive a ~40 ms RTT: the server sees the
	// request with its deadline already unmeetable. The client usually
	// times out before the rejection crosses back; the server counter is
	// the assertion.
	_, err = cl.Call(methodEcho, []byte("doomed"), 10*time.Millisecond)
	if err == nil {
		t.Fatal("call with unmeetable budget succeeded")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().ExpiredOnArrival == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ExpiredOnArrival never incremented: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.Stats()
	if st.ExpiredOnArrival < 1 {
		t.Fatalf("ExpiredOnArrival = %d", st.ExpiredOnArrival)
	}
	if st.Gate.ExpiredOnArrival != st.ExpiredOnArrival {
		t.Fatalf("server (%d) and gate (%d) disagree on arrivals",
			st.ExpiredOnArrival, st.Gate.ExpiredOnArrival)
	}
}

// TestProbeHealth exercises the probe RPC across the server's states.
func TestProbeHealth(t *testing.T) {
	srv, cl := newPair(t, nil)
	p, err := cl.Probe(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p != overload.ProbeHealthy {
		t.Fatalf("probe = %v, want healthy", p)
	}
	srv.SetDraining(true)
	p, err = cl.Probe(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p != overload.ProbeDraining {
		t.Fatalf("probe = %v, want draining", p)
	}
	if !cl.KnownDraining() {
		t.Fatal("draining probe did not mark the client")
	}
	if st := srv.Stats(); st.Probes != 2 {
		t.Fatalf("probes = %d", st.Probes)
	}
}

// TestDrainingRejectsNewCalls: a draining server answers new calls with a
// typed refusal, immediately, and counts them.
func TestDrainingRejectsNewCalls(t *testing.T) {
	srv, cl := newPair(t, nil)
	if _, err := cl.Call(methodEcho, []byte("pre"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	srv.SetDraining(true)
	t0 := time.Now()
	_, err := cl.Call(methodEcho, []byte("post"), 2*time.Second)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	if took := time.Since(t0); took > 500*time.Millisecond {
		t.Errorf("draining rejection took %v; should be immediate, not a timeout", took)
	}
	if st := srv.Stats(); st.Draining != 1 {
		t.Errorf("Draining = %d", st.Draining)
	}
	if !cl.KnownDraining() {
		t.Error("draining rejection did not mark the client")
	}
	// Recovery: leaving the drain state restores service.
	srv.SetDraining(false)
	if _, err := cl.Call(methodEcho, []byte("back"), 2*time.Second); err != nil {
		t.Fatalf("call after drain lifted: %v", err)
	}
}

// TestFailoverSteersAroundDraining: once the primary declares draining,
// a failover client sends subsequent calls straight to the backup without
// burning a round trip on the primary.
func TestFailoverSteersAroundDraining(t *testing.T) {
	primary, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	backup, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()

	fc, err := DialFailover([]string{primary.Addr(), backup.Addr()}, ClientConfig{Seed: 42}, BreakerPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	if _, err := fc.Call(methodEcho, []byte("a"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if primary.Served() != 1 {
		t.Fatalf("primary served = %d", primary.Served())
	}

	primary.SetDraining(true)
	// First call discovers the drain (typed rejection) and fails over
	// inside the same call.
	if _, err := fc.Call(methodEcho, []byte("b"), 2*time.Second); err != nil {
		t.Fatalf("call during drain: %v", err)
	}
	var backupResponses int64 = 1
	drainRejects := primary.Stats().Draining
	if drainRejects == 0 {
		t.Fatal("primary never saw the drain discovery call")
	}
	// Subsequent calls steer away: the primary sees no further requests.
	for i := 0; i < 5; i++ {
		if _, err := fc.Call(methodEcho, []byte{byte(i)}, 2*time.Second); err != nil {
			t.Fatalf("steered call %d: %v", i, err)
		}
		backupResponses++
	}
	if got := primary.Stats().Draining; got != drainRejects {
		t.Errorf("primary still receiving calls while draining: %d -> %d", drainRejects, got)
	}
	// A response the client has seen is a response the server has counted.
	if got := backup.Served(); got < backupResponses {
		t.Errorf("backup served = %d after %d responses observed", got, backupResponses)
	}
	if st := fc.Stats(); st.Failovers < 6 {
		t.Errorf("failovers = %d, want >= 6", st.Failovers)
	}
}

// TestPriorityShedsLowestFirst pushes a burst far past the server's slot
// capacity with tight queues and checks the tiering: the highest ARTP
// priority keeps being admitted while the lowest is refused first.
func TestPriorityShedsLowestFirst(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler,
		WithWorkers(1),
		WithOverload(overload.Config{QueueCap: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type result struct {
		prio core.Priority
		err  error
	}
	results := make(chan result, 64)
	for i := 0; i < 32; i++ {
		prio := core.PrioHighest
		if i%2 == 1 {
			prio = core.PrioLowest
		}
		go func(p core.Priority) {
			_, err := cl.CallPri(methodSleep, nil, p, 5*time.Second)
			results <- result{p, err}
		}(prio)
	}
	shedLow, shedHigh := 0, 0
	for i := 0; i < 32; i++ {
		r := <-results
		if errors.Is(r.err, ErrServerShed) {
			if r.prio == core.PrioLowest {
				shedLow++
			} else {
				shedHigh++
			}
		}
	}
	// 32 sleeps x 300 ms on one slot with 4-deep queues: most of the
	// burst must be refused, and the refusals must respect priority.
	if shedLow == 0 {
		t.Fatal("overload never shed the lowest priority")
	}
	if shedHigh > shedLow {
		t.Errorf("highest priority shed more than lowest (%d > %d)", shedHigh, shedLow)
	}
	st := srv.Stats()
	if st.QueueFull == 0 {
		t.Errorf("expected tail drops at QueueCap=4: %+v", st)
	}
}
