package rpc

import (
	"errors"
	"net"
	"testing"
	"time"

	"marnet/internal/faults"
)

// deadAddr reserves a loopback UDP port and releases it, yielding an
// address where (almost certainly) nothing answers.
func deadAddr(t *testing.T) string {
	t.Helper()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := sock.LocalAddr().String()
	sock.Close()
	return addr
}

func TestRetryRecoversAfterOutage(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Blackholed at first; a goroutine lifts it after the first rpc attempt
	// has already been abandoned by the transport.
	relay, err := faults.NewRelay(srv.Addr(), faults.Config{
		Seed: 3,
		Timeline: []faults.Event{
			{At: 0, Dir: faults.Both, Blackhole: faults.On},
			{At: 300 * time.Millisecond, Dir: faults.Both, Blackhole: faults.Off},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	cl, err := Dial(relay.Addr(), ClientConfig{
		RequestDeadline: 80 * time.Millisecond, // transport gives up fast
		Retry:           RetryPolicy{Max: 5, Backoff: 20 * time.Millisecond},
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Call(methodEcho, []byte("survivor"), 3*time.Second)
	if err != nil {
		t.Fatalf("call through outage failed: %v", err)
	}
	if string(resp) != "survivor" {
		t.Fatalf("resp = %q", resp)
	}
	if st := cl.Stats(); st.Retries == 0 {
		t.Errorf("stats = %+v: expected at least one rpc-level retry", st)
	}
}

func TestBreakerOpensFastFailsAndProbes(t *testing.T) {
	cl, err := Dial(deadAddr(t), ClientConfig{
		RequestDeadline: 30 * time.Millisecond,
		Breaker:         BreakerPolicy{Enabled: true, Threshold: 3, Cooldown: 250 * time.Millisecond},
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 3; i++ {
		if _, err := cl.Call(methodEcho, nil, 60*time.Millisecond); err == nil {
			t.Fatal("call to dead address succeeded")
		}
	}
	if !cl.BreakerOpen() {
		t.Fatal("breaker closed after threshold failures")
	}
	start := time.Now()
	_, err = cl.Call(methodEcho, nil, time.Second)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Errorf("breaker fast-fail took %v", took)
	}

	// After the cooldown one probe is let through; its failure re-opens.
	time.Sleep(300 * time.Millisecond)
	if _, err := cl.Call(methodEcho, nil, 60*time.Millisecond); errors.Is(err, ErrBreakerOpen) {
		t.Error("half-open probe was rejected")
	}
	if _, err := cl.Call(methodEcho, nil, 60*time.Millisecond); !errors.Is(err, ErrBreakerOpen) {
		t.Errorf("post-probe call err = %v, want ErrBreakerOpen", err)
	}
}

func TestBreakerRecoversOnSuccess(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	b := newBreaker(BreakerPolicy{Enabled: true, Threshold: 2, Cooldown: 50 * time.Millisecond})
	now := time.Now()
	b.record(false, now)
	b.record(false, now)
	if b.allow(now) {
		t.Fatal("breaker should be open")
	}
	probe := now.Add(60 * time.Millisecond)
	if !b.allow(probe) {
		t.Fatal("half-open probe rejected")
	}
	if b.allow(probe) {
		t.Fatal("second concurrent probe allowed")
	}
	b.record(true, probe)
	if !b.allow(probe) {
		t.Fatal("breaker should be closed after probe success")
	}
}

func TestHedgedRequestLaunches(t *testing.T) {
	_, cl := newPair(t, nil)
	cl.cfg.Hedge = HedgePolicy{Enabled: true, Delay: 40 * time.Millisecond}
	// methodSleep takes 300ms, far beyond the hedge delay: a second request
	// must be launched (and the call still succeeds).
	resp, err := cl.Call(methodSleep, nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "late" {
		t.Fatalf("resp = %q", resp)
	}
	if st := cl.Stats(); st.Hedges == 0 {
		t.Errorf("stats = %+v: no hedge launched", st)
	}
}

func TestLatencyTrackerQuantile(t *testing.T) {
	lt := newLatencyTracker()
	if _, ok := lt.quantile(0.99); ok {
		t.Error("quantile available with no samples")
	}
	for i := 1; i <= 100; i++ {
		lt.record(time.Duration(i) * time.Millisecond)
	}
	p99, ok := lt.quantile(0.99)
	if !ok {
		t.Fatal("quantile unavailable after 100 samples")
	}
	if p99 < 90*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("p99 = %v", p99)
	}
}

func TestFailoverDispatchesToBackup(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fc, err := DialFailover([]string{deadAddr(t), srv.Addr()}, ClientConfig{
		RequestDeadline: 40 * time.Millisecond,
		Breaker:         BreakerPolicy{Enabled: true, Threshold: 2, Cooldown: 2 * time.Second},
		Seed:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	const n = 8
	for i := 0; i < n; i++ {
		resp, err := fc.Call(methodEcho, []byte{byte(i)}, 500*time.Millisecond)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(resp) != 1 || resp[0] != byte(i) {
			t.Fatalf("call %d: resp = %v", i, resp)
		}
	}
	st := fc.Stats()
	if st.Failovers != n {
		t.Errorf("failovers = %d, want %d", st.Failovers, n)
	}
	if !fc.clients[0].BreakerOpen() {
		t.Error("primary breaker never opened")
	}
	// With the primary's breaker open, calls reach the backup in
	// microseconds instead of burning the primary's share of the deadline.
	start := time.Now()
	if _, err := fc.Call(methodEcho, []byte("x"), 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("breaker-open failover call took %v", took)
	}
	if len(fc.Clients()) != 2 {
		t.Errorf("clients = %d", len(fc.Clients()))
	}
}

func TestFailoverValidation(t *testing.T) {
	if _, err := DialFailover(nil, ClientConfig{}); err == nil {
		t.Error("empty address list should fail")
	}
	if _, err := DialFailover([]string{"not an address"}, ClientConfig{}); err == nil {
		t.Error("bad address should fail")
	}
}
