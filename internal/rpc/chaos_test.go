package rpc

import (
	"bytes"
	"testing"
	"time"

	"marnet/internal/faults"
)

// TestChaosStormSuite is the acceptance scenario for the resilient stack:
// a sealed client/server pair whose primary path suffers scripted
// Gilbert–Elliott burst loss (~25% stationary), duplication, reordering
// and jitter, plus a 500 ms blackhole and a full server restart mid-run.
// A retrying, breaker-guarded failover client must still complete ≥99% of
// its calls. Every random decision is seeded, so the storm is the same on
// every run.
func TestChaosStormSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm runs for several seconds")
	}
	key := bytes.Repeat([]byte{0xC7}, 16)
	ge := &faults.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.2, LossGood: 0.03, LossBad: 0.7}

	srv1, err := NewServer("127.0.0.1:0", key, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close() // idempotent; also closed by the restart script
	backup, err := NewServer("127.0.0.1:0", key, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()

	storm := faults.DirConfig{
		GE:      ge,
		Delay:   time.Millisecond,
		Jitter:  time.Millisecond,
		Dup:     0.02,
		Reorder: 0.03,
	}
	relay, err := faults.NewRelay(srv1.Addr(), faults.Config{
		Seed: 42,
		Up:   storm,
		Down: storm,
		Timeline: []faults.Event{
			// A 500 ms total outage in the middle of the run.
			{At: 600 * time.Millisecond, Dir: faults.Both, Blackhole: faults.On},
			{At: 1100 * time.Millisecond, Dir: faults.Both, Blackhole: faults.Off},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	fc, err := DialFailover([]string{relay.Addr(), backup.Addr()}, ClientConfig{
		Key:             key,
		Keepalive:       50 * time.Millisecond,
		RequestDeadline: 80 * time.Millisecond,
		Retry:           RetryPolicy{Max: 4, Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond},
		Seed:            7,
	}, BreakerPolicy{Threshold: 4, Cooldown: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// Scripted server restart: at 1.7s the primary dies, a new process takes
	// over on a different port, and the relay is re-pointed at it. The
	// accompanying short blackhole is the restart window itself — a
	// restarting server answers nothing.
	restartDone := make(chan *Server, 1)
	go func() {
		time.Sleep(1400 * time.Millisecond)
		relay.SetBlackhole(faults.Both, true)
		srv1.Close()
		ns, err := NewServer("127.0.0.1:0", key, testHandler)
		if err != nil {
			restartDone <- nil
			return
		}
		relay.SetUpstream(ns.Addr()) //nolint:errcheck // address from NewServer
		time.Sleep(200 * time.Millisecond)
		relay.SetBlackhole(faults.Both, false)
		restartDone <- ns
	}()

	const total = 150
	okCalls := 0
	var firstErr error
	for i := 0; i < total; i++ {
		req := []byte{byte(i), byte(i >> 8)}
		resp, err := fc.Call(methodEcho, req, 600*time.Millisecond)
		if err == nil && bytes.Equal(resp, req) {
			okCalls++
		} else if err != nil && firstErr == nil {
			firstErr = err
		}
		time.Sleep(2 * time.Millisecond)
	}

	srv2 := <-restartDone
	if srv2 == nil {
		t.Fatal("scripted server restart failed to start a new server")
	}
	defer srv2.Close()

	if ratio := float64(okCalls) / float64(total); ratio < 0.99 {
		t.Errorf("success = %d/%d (%.3f), want >= 0.99 (first error: %v)",
			okCalls, total, ratio, firstErr)
	}

	// The storm must actually have stormed.
	c := relay.Counters(faults.Both)
	if c.Blackholed == 0 {
		t.Error("no packets blackholed despite two scripted windows")
	}
	if nonBH := c.Received - c.Blackholed; nonBH > 0 {
		if frac := float64(c.Dropped) / float64(nonBH); frac < 0.15 {
			t.Errorf("burst-loss drop fraction = %.3f, want >= 0.15", frac)
		}
	}
	if c.Duplicated == 0 || c.Reordered == 0 {
		t.Errorf("storm too quiet: dup=%d reorder=%d", c.Duplicated, c.Reordered)
	}
	if relay.Swaps() != 1 {
		t.Errorf("upstream swaps = %d, want 1", relay.Swaps())
	}

	st := fc.Stats()
	if st.PerServer[0].Reconnects == 0 {
		t.Error("primary session never resumed (keepalive verdicts inert?)")
	}
	if st.Failovers == 0 {
		t.Error("no calls failed over to the backup during the outages")
	}
	if st.PerServer[0].Retries == 0 {
		t.Error("no rpc-level retries under burst loss")
	}
	t.Logf("chaos summary: %d/%d calls ok; relay %+v; primary %+v; failovers %d",
		okCalls, total, c, st.PerServer[0], st.Failovers)
}
