// Command artpdemo runs the real-UDP ARTP implementation end to end on
// loopback: a server, a chaos-grade impairment relay, and a client sending
// the paper's four traffic types (metadata, sensors, reference frames,
// interframes) for a few seconds, then prints per-stream statistics. The
// client's conn re-binds to a fresh socket when the relay falls silent, so
// a scripted blackhole (-blackhole) costs late frames but never the session.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"marnet/internal/core"
	"marnet/internal/faults"
	"marnet/internal/wire"
)

func main() {
	dur := flag.Duration("dur", 3*time.Second, "demo duration")
	dropEvery := flag.Int("drop-every", 9, "relay drops every n-th datagram (0 = off)")
	loss := flag.Float64("loss", 0, "independent per-packet loss probability")
	burst := flag.Bool("burst", false, "use Gilbert-Elliott burst loss (~25% stationary) instead of -loss")
	delay := flag.Duration("delay", 5*time.Millisecond, "relay one-way delay")
	jitter := flag.Duration("jitter", 0, "extra uniform delay in [0, jitter)")
	blackhole := flag.Duration("blackhole", 0, "total outage of this length at one third of the run (0 = off)")
	seed := flag.Int64("seed", 1, "fault-injection seed (runs are reproducible per seed)")
	budget := flag.Float64("budget", 4e6, "starting send budget, bits/s")
	flag.Parse()

	dir := faults.DirConfig{
		DropEvery: *dropEvery,
		Loss:      *loss,
		Delay:     *delay,
		Jitter:    *jitter,
	}
	if *burst {
		dir.DropEvery, dir.Loss = 0, 0
		dir.GE = &faults.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.2, LossGood: 0.03, LossBad: 0.7}
	}
	cfg := faults.Config{Seed: *seed, Up: dir, Down: dir}
	if *blackhole > 0 {
		at := *dur / 3
		cfg.Timeline = []faults.Event{
			{At: at, Dir: faults.Both, Blackhole: faults.On},
			{At: at + *blackhole, Dir: faults.Both, Blackhole: faults.Off},
		}
	}
	if err := run(*dur, cfg, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "artpdemo:", err)
		os.Exit(1)
	}
}

func run(dur time.Duration, cfg faults.Config, budget float64) error {
	var mu sync.Mutex
	received := map[uint16]int{}
	server, err := wire.Listen("127.0.0.1:0", wire.Config{
		OnMessage: func(m wire.Message) {
			mu.Lock()
			received[m.Stream]++
			mu.Unlock()
		},
	})
	if err != nil {
		return err
	}
	defer server.Close()

	relay, err := faults.NewRelay(server.LocalAddr().String(), cfg)
	if err != nil {
		return err
	}
	defer relay.Close()

	streams := []wire.StreamSpec{
		{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 0.1e6},
		{ID: 2, Class: core.ClassFullBestEffort, Priority: core.PrioNoDiscard, Rate: 0.4e6},
		{ID: 3, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 1e6, Deadline: 250 * time.Millisecond},
		{ID: 4, Class: core.ClassFullBestEffort, Priority: core.PrioLowest, Rate: 2e6},
	}
	conn, err := wire.Dial(relay.Addr(), wire.Config{
		Streams:     streams,
		StartBudget: budget,
		Keepalive:   100 * time.Millisecond,
		OnStateChange: func(st wire.State) {
			fmt.Printf("  [session] %v\n", st)
		},
	})
	if err != nil {
		return err
	}
	defer conn.Close()

	names := map[uint16]string{1: "metadata", 2: "sensors", 3: "ref-frames", 4: "inter-frames"}
	fmt.Printf("artpdemo: server %s via chaos relay %s, running %v (seed %d)\n",
		server.LocalAddr(), relay.Addr(), dur, cfg.Seed)

	stop := time.After(dur)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	sent := map[uint16]int{}
loop:
	for {
		select {
		case <-stop:
			break loop
		case <-tick.C:
			// Per tick: one metadata, two sensor samples, a video frame's
			// worth of data split into ref/inter shares.
			for _, s := range []struct {
				id   uint16
				n    int
				size int
			}{{1, 1, 120}, {2, 2, 250}, {3, 1, 1000}, {4, 3, 1100}} {
				for i := 0; i < s.n; i++ {
					ok, err := conn.Send(s.id, make([]byte, s.size))
					if err != nil {
						return err
					}
					if ok {
						sent[s.id]++
					}
				}
			}
		}
	}
	// Give retransmissions a moment to settle.
	time.Sleep(300 * time.Millisecond)

	fmt.Printf("\n%-14s %8s %8s %8s %8s %10s\n", "stream", "sent", "recv", "shed", "retx", "alloc")
	mu.Lock()
	defer mu.Unlock()
	for _, id := range []uint16{1, 2, 3, 4} {
		st := conn.Stats(id)
		fmt.Printf("%-14s %8d %8d %8d %8d %7.2f Mb\n",
			names[id], sent[id], received[id], st.Shed, st.Retx, st.Allocated/1e6)
	}
	c := relay.Counters(faults.Both)
	fmt.Printf("\nrelay: %d dropped (%d loss, %d blackholed), %d dup, %d reordered; session re-bound %d time(s); final budget %.2f Mb/s\n",
		relay.TotalDropped(), c.Dropped, c.Blackholed, c.Duplicated, c.Reordered,
		conn.ReconnectCount(), conn.Budget()/1e6)
	return nil
}
