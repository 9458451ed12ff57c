package rpc

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marnet/internal/faults"
)

// TestShardStormCrossShardRace is the sharded-server chaos acceptance: N
// concurrent clients hammer a 4-shard server, each through its own
// impairment relay scripting burst loss and a mid-run blackhole (the relay
// is a single-flow middlebox, so every client gets a private one). During
// the outage each client's keepalives miss, its session is declared dead,
// and the failover client redials through its clean backup relay — a
// brand-new upstream 4-tuple, which the kernel (or demux hash) is free to
// land on a *different* shard than before. That is exactly the cross-shard
// ownership handoff the sharded server must survive. Run under
// `make test-race` (./internal/rpc/... is in RACE_PKGS) this is the
// cross-shard race harness; the invariants below hold either way:
//
//   - ≥99% of calls succeed with intact payloads,
//   - no goroutines leak once clients, relays and server are down,
//   - packet conservation at every relay: everything received is
//     accounted forwarded, dropped or blackholed.
func TestShardStormCrossShardRace(t *testing.T) {
	if testing.Short() {
		t.Skip("shard storm runs for several seconds")
	}
	baseline := runtime.NumGoroutine()

	key := bytes.Repeat([]byte{0x5D}, 16)
	srv, err := NewServer("127.0.0.1:0", key, testHandler, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if srv.Shards() < 1 {
		t.Fatalf("Shards() = %d", srv.Shards())
	}

	// Race instrumentation makes everything ~10x slower; on small hosts a
	// full-size storm starves the keepalive timers themselves and the run
	// measures the scheduler, not the protocol. Scale the load down and the
	// timers up — the point of the -race run is catching data races on the
	// cross-shard paths, which need concurrency, not saturation.
	clients, perClient := 8, 60
	keepalive, reqDeadline, callBudget := 50*time.Millisecond, 80*time.Millisecond, time.Second
	outageEnd, runFloor := 1000*time.Millisecond, 1600*time.Millisecond
	if raceEnabled {
		clients, perClient = 4, 30
		keepalive, reqDeadline, callBudget = 100*time.Millisecond, 150*time.Millisecond, 2*time.Second
		// The failover client grants the primary callBudget/2 before moving
		// a call to the backup, so the blackhole must outlast that share —
		// otherwise every call simply out-waits the outage retrying on the
		// primary and nothing is ever served by the backup.
		outageEnd, runFloor = 2200*time.Millisecond, 2800*time.Millisecond
	}
	ge := &faults.GilbertElliott{PGoodBad: 0.08, PBadGood: 0.25, LossGood: 0.02, LossBad: 0.5}
	storm := faults.DirConfig{GE: ge, Delay: time.Millisecond, Jitter: time.Millisecond, Dup: 0.01, Reorder: 0.02}
	primaries := make([]*faults.Relay, clients)
	backups := make([]*faults.Relay, clients)
	for c := 0; c < clients; c++ {
		primaries[c], err = faults.NewRelay(srv.Addr(), faults.Config{
			Seed: int64(99 + c),
			Up:   storm,
			Down: storm,
			Timeline: []faults.Event{
				// A scripted outage mid-run: keepalives miss, the session
				// is declared dead, and the client fails over to the
				// backup relay — arriving at the server from a new
				// 4-tuple, i.e. potentially a different shard.
				{At: 500 * time.Millisecond, Dir: faults.Both, Blackhole: faults.On},
				{At: outageEnd, Dir: faults.Both, Blackhole: faults.Off},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		backups[c], err = faults.NewRelay(srv.Addr(), faults.Config{Seed: int64(7000 + c)})
		if err != nil {
			t.Fatal(err)
		}
	}

	var okCalls, failCalls, failovers atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Stagger the dials so eight concurrent handshakes don't shed
			// each other's first frames on slow (-race) builds.
			time.Sleep(time.Duration(c) * 5 * time.Millisecond)
			fc, err := DialFailover([]string{primaries[c].Addr(), backups[c].Addr()}, ClientConfig{
				Key:             key,
				StartBudget:     20e6,
				Keepalive:       keepalive,
				RequestDeadline: reqDeadline,
				Retry:           RetryPolicy{Max: 6, Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
				Seed:            int64(1000 + c),
			}, BreakerPolicy{Threshold: 4, Cooldown: 250 * time.Millisecond})
			if err != nil {
				t.Errorf("client %d: dial: %v", c, err)
				return
			}
			defer fc.Close()
			// Prime the session: the very first call races the handshake
			// itself on slow (-race) builds and can be shed before the
			// start-budget window opens. A few generous warm-ups keep the
			// measured loop about steady-state behavior, not dial latency.
			for w := 0; w < 3; w++ {
				if _, err := fc.Call(methodEcho, []byte{byte(c)}, 2*callBudget); err == nil {
					break
				}
			}
			// Time-driven so the run always spans the scripted outage and
			// its keepalive-miss aftermath, however fast or slow the build
			// runs the fixed call count.
			start := time.Now()
			for i := 0; i < perClient || time.Since(start) < runFloor; i++ {
				req := []byte{byte(c), byte(i), byte(i >> 8)}
				resp, err := fc.Call(methodEcho, req, callBudget)
				if err == nil && bytes.Equal(resp, req) {
					okCalls.Add(1)
				} else {
					failCalls.Add(1)
					if err != nil {
						firstErr.CompareAndSwap(nil, fmt.Errorf("client %d call %d: %w", c, i, err))
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
			failovers.Add(fc.Stats().Failovers)
		}(c)
	}
	wg.Wait()

	total := okCalls.Load() + failCalls.Load()
	if ratio := float64(okCalls.Load()) / float64(total); ratio < 0.99 {
		t.Errorf("success = %d/%d (%.3f), want >= 0.99 (first error: %v)",
			okCalls.Load(), total, ratio, firstErr.Load())
	}
	if failovers.Load() == 0 {
		t.Error("no client failed over during the outage — the cross-shard handoff never happened")
	}

	if served := srv.Served(); served < okCalls.Load() {
		t.Errorf("server Served()=%d < successful calls %d", served, okCalls.Load())
	}

	// Packet conservation at every relay: everything received was
	// forwarded, dropped by the loss model, or blackholed — no packet
	// simply vanishes inside the middlebox.
	var blackholed int64
	for c := 0; c < clients; c++ {
		for name, r := range map[string]*faults.Relay{"primary": primaries[c], "backup": backups[c]} {
			ctr := r.Counters(faults.Both)
			if ctr.Received != ctr.Forwarded+ctr.Dropped+ctr.RateDropped+ctr.Blackholed {
				t.Errorf("client %d %s relay conservation violated: %+v", c, name, ctr)
			}
			blackholed += ctr.Blackholed
		}
		primaries[c].Close()
		backups[c].Close()
	}
	if blackholed == 0 {
		t.Error("no packets blackholed despite the scripted outage windows")
	}

	if err := srv.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}

	// Goroutine-leak check: with every client, the relays and all four
	// shards' readers/pacers/drains down, we must return to the baseline
	// (allow slack for runtime helpers that settle asynchronously).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("shard storm: %d/%d ok; failovers=%d; blackholed=%d; shards=%d",
		okCalls.Load(), total, failovers.Load(), blackholed, srv.Shards())
}

// TestShardServerBasics pins the WithShards surface: a sharded server
// serves plain round-trips, reports its shard count, and holds each peer
// in exactly one shard.
func TestShardServerBasics(t *testing.T) {
	key := bytes.Repeat([]byte{0x31}, 16)
	srv, err := NewServer("127.0.0.1:0", key, testHandler, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Shards() < 1 || srv.Shards() > 4 {
		t.Fatalf("Shards() = %d, want 1..4", srv.Shards())
	}

	const n = 6
	for i := 0; i < n; i++ {
		cl, err := Dial(srv.Addr(), ClientConfig{Key: key})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		req := []byte{byte(i)}
		resp, err := cl.Call(methodEcho, req, 5*time.Second)
		if err != nil || !bytes.Equal(resp, req) {
			t.Fatalf("client %d: echo = %q, %v", i, resp, err)
		}
	}
	if live := srv.Clients(); live != n {
		t.Fatalf("Conns = %d, want %d", live, n)
	}
}
