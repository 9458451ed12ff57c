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
	fc, err := DialFailover([]string{deadAddr(t)}, ClientConfig{
		RequestDeadline: 30 * time.Millisecond,
		Seed:            2,
	}, BreakerPolicy{Threshold: 3, Cooldown: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	for i := 0; i < 3; i++ {
		if _, err := fc.Call(methodEcho, nil, 60*time.Millisecond); err == nil {
			t.Fatal("call to dead address succeeded")
		}
	}
	if !fc.cooling(0, time.Now()) {
		t.Fatal("breaker closed after threshold failures")
	}
	start := time.Now()
	_, err = fc.Call(methodEcho, nil, time.Second)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Errorf("breaker fast-fail took %v", took)
	}

	// After the cooldown one probe is let through; its failure re-opens.
	time.Sleep(300 * time.Millisecond)
	if _, err := fc.Call(methodEcho, nil, 60*time.Millisecond); errors.Is(err, ErrBreakerOpen) {
		t.Error("half-open probe was rejected")
	}
	if _, err := fc.Call(methodEcho, nil, 60*time.Millisecond); !errors.Is(err, ErrBreakerOpen) {
		t.Errorf("post-probe call err = %v, want ErrBreakerOpen", err)
	}
}

// A server that fails until the breaker opens and then answers again: the
// half-open probe is the one call let through (a second call while it is
// out still fails fast), and its success closes the breaker.
func TestBreakerRecoversOnSuccess(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	relay, err := faults.NewRelay(srv.Addr(), faults.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	relay.SetBlackhole(faults.Both, true)
	fc, err := DialFailover([]string{relay.Addr()}, ClientConfig{Seed: 5},
		BreakerPolicy{Threshold: 2, Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	for i := 0; i < 2; i++ {
		if _, err := fc.Call(methodEcho, nil, 30*time.Millisecond); err == nil {
			t.Fatal("call through the blackhole succeeded")
		}
	}
	if _, err := fc.Call(methodEcho, nil, time.Second); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v: breaker should be open", err)
	}
	relay.SetBlackhole(faults.Both, false)
	time.Sleep(60 * time.Millisecond)
	// methodSleep holds the probe out for 300 ms.
	probe := make(chan error, 1)
	fc.CallAsync(methodSleep, nil, 2*time.Second, func(_ []byte, err error) { probe <- err })
	if _, err := fc.Call(methodEcho, nil, time.Second); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v: second concurrent probe allowed", err)
	}
	if err := <-probe; err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if _, err := fc.Call(methodEcho, nil, time.Second); err != nil {
		t.Fatalf("err = %v: breaker should be closed after probe success", err)
	}
}

func TestHedgedRequestLaunches(t *testing.T) {
	_, cl := newPair(t, nil)
	cl.cfg.Hedge = HedgePolicy{Delay: 40 * time.Millisecond}
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

func TestFailoverDispatchesToBackup(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fc, err := DialFailover([]string{deadAddr(t), srv.Addr()}, ClientConfig{
		RequestDeadline: 40 * time.Millisecond,
		Seed:            4,
	}, BreakerPolicy{Threshold: 2, Cooldown: 2 * time.Second})
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
	if !fc.cooling(0, time.Now()) {
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
	if _, err := DialFailover(nil, ClientConfig{}, BreakerPolicy{}); err == nil {
		t.Error("empty address list should fail")
	}
	if _, err := DialFailover([]string{"not an address"}, ClientConfig{}, BreakerPolicy{}); err == nil {
		t.Error("bad address should fail")
	}
}
