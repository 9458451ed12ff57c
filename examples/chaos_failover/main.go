// Chaos-failover example: the paper's multi-server offloading topology
// (Figure 5a) surviving a hostile network. A primary recognition server
// sits behind a chaos relay injecting Gilbert-Elliott burst loss (~25%
// stationary), jitter, duplication and a scripted 500 ms blackhole; then
// the "primary" is restarted onto a new port mid-run. A FailoverClient —
// per-call retries with seeded backoff, a circuit breaker, a keepalive-
// driven resumable session, and an ordered backup server — keeps the
// offloading loop alive through all of it.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"marnet/internal/faults"
	"marnet/internal/rpc"
)

const methodEcho = 1

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	key := bytes.Repeat([]byte{0x42}, 16)
	handler := func(method uint8, req []byte) []byte { return req }

	primary, err := rpc.NewServer("127.0.0.1:0", key, handler)
	if err != nil {
		return err
	}
	defer primary.Close()
	backup, err := rpc.NewServer("127.0.0.1:0", key, handler)
	if err != nil {
		return err
	}
	defer backup.Close()

	// The primary's path is hostile: bursty loss on both directions plus a
	// scripted total outage. Every random decision flows from the seed.
	storm := faults.DirConfig{
		GE:     &faults.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.2, LossGood: 0.03, LossBad: 0.7},
		Delay:  2 * time.Millisecond,
		Jitter: time.Millisecond,
		Dup:    0.02,
	}
	relay, err := faults.NewRelay(primary.Addr(), faults.Config{
		Seed: 42,
		Up:   storm,
		Down: storm,
		Timeline: []faults.Event{
			{At: 900 * time.Millisecond, Dir: faults.Both, Blackhole: faults.On},
			{At: 1400 * time.Millisecond, Dir: faults.Both, Blackhole: faults.Off},
		},
	})
	if err != nil {
		return err
	}
	defer relay.Close()

	fc, err := rpc.DialFailover([]string{relay.Addr(), backup.Addr()}, rpc.ClientConfig{
		Key:             key,
		Keepalive:       50 * time.Millisecond,
		RequestDeadline: 80 * time.Millisecond,
		Retry:           rpc.RetryPolicy{Max: 4, Backoff: 10 * time.Millisecond},
		Seed:            7,
	}, rpc.BreakerPolicy{Threshold: 4, Cooldown: 250 * time.Millisecond})
	if err != nil {
		return err
	}
	defer fc.Close()
	fmt.Printf("primary %s behind chaos relay %s, backup %s\n\n",
		primary.Addr(), relay.Addr(), backup.Addr())

	// Restart the primary mid-run: close it, bring a new one up on a fresh
	// port, re-point the relay. A restarting server answers nothing, so the
	// restart window is itself a short blackhole.
	go func() {
		time.Sleep(2 * time.Second)
		fmt.Println("  [script] restarting primary server...")
		relay.SetBlackhole(faults.Both, true)
		primary.Close()
		ns, err := rpc.NewServer("127.0.0.1:0", key, handler)
		if err != nil {
			return
		}
		relay.SetUpstream(ns.Addr()) //nolint:errcheck // address from NewServer
		time.Sleep(200 * time.Millisecond)
		relay.SetBlackhole(faults.Both, false)
		fmt.Printf("  [script] primary back on %s\n", ns.Addr())
	}()

	const total = 200
	ok := 0
	start := time.Now()
	for i := 0; i < total; i++ {
		req := []byte{byte(i)}
		if resp, err := fc.Call(methodEcho, req, 600*time.Millisecond); err == nil && bytes.Equal(resp, req) {
			ok++
		}
		if (i+1)%50 == 0 {
			fmt.Printf("  %3d calls, %3d ok, t=%v\n", i+1, ok, time.Since(start).Round(time.Millisecond))
		}
		time.Sleep(3 * time.Millisecond)
	}

	st := fc.Stats()
	c := relay.Counters(faults.Both)
	fmt.Printf("\ncompleted %d/%d calls (%.1f%%) through the storm\n", ok, total, 100*float64(ok)/float64(total))
	fmt.Printf("relay: %d/%d dropped (burst loss), %d blackholed, %d duplicated, upstream swapped %d time(s)\n",
		c.Dropped, c.Received, c.Blackholed, c.Duplicated, relay.Swaps())
	fmt.Printf("primary client: %d retries, %d session resumptions; %d calls served by the backup\n",
		st.PerServer[0].Retries, st.PerServer[0].Reconnects, st.Failovers)
	return nil
}
