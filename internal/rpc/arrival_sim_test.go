package rpc_test

import (
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/phy"
	"marnet/internal/rpc"
)

// TestServerAnswersAtArrivalRate: a server answers as fast as it is asked.
// One host on a 1 Gb/s link with 20 µs each way keeps eight 600 B calls in
// flight against a 10 µs modelled service for one virtual second. The
// server conn's budget starts at 20 Mb/s — one ~125 B sealed response every
// 50 µs, 20 k a second, which is where completions sat while that start
// value was the only budget the conn ever had — and must have probed past
// everything the conn puts on its uplink (responses and acks) within
// 250 ms, with completions at several times the start value's rate.
func TestServerAnswersAtArrivalRate(t *testing.T) {
	const (
		startBudget = 20e6 // rpc.NewServer's StartBudget
		respWire    = 125  // bytes of one sealed response frame
		inFlight    = 8
	)
	s := marsim.NewScenario("arrival-rate", 1)
	link := phy.Profile{Name: "fat", Up: 1e9, Down: 1e9, OneWay: 20 * time.Microsecond}
	key := []byte("0123456789abcdef")
	resp := make([]byte, 64)
	ep := s.Net.NewEndpoint("server", link)
	srv, err := rpc.NewServer("sim", key, func(uint8, []byte) []byte { return resp },
		rpc.WithPacketConn(ep), rpc.WithClock(s.Clock), rpc.WithWorkers(inFlight),
		rpc.WithServiceModel(func(uint8, []byte) time.Duration { return 10 * time.Microsecond }))
	if err != nil {
		t.Fatal(err)
	}
	s.Defer(func() { srv.Close() }) //nolint:errcheck // teardown
	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Key: key, Clock: s.Clock, Dialer: s.Net.NewHost("mobile", link).Dialer(ep), Seed: 2,
		RequestRate: 1e9, StartBudget: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Defer(func() { cl.Close() }) //nolint:errcheck // teardown

	req := make([]byte, 600)
	completed, failed := 0, 0
	var issue func()
	issue = func() {
		cl.CallAsync(1, req, core.PrioHighest, 75*time.Millisecond, func(_ []byte, err error) {
			if err != nil {
				failed++
			} else {
				completed++
			}
			if s.Sim.Now() < time.Second {
				issue()
			}
		})
	}
	s.At(0, func() {
		for i := 0; i < inFlight; i++ {
			issue()
		}
	})
	uplink, _ := ep.Links()
	var budgetAt250 float64
	var sentAt250 int64
	s.At(250*time.Millisecond, func() {
		conns := rpc.ServerConns(srv)
		if len(conns) != 1 {
			t.Errorf("%d server conns at 250 ms, want 1", len(conns))
			return
		}
		budgetAt250, sentAt250 = conns[0].Budget(), uplink.Stats().SentBytes
	})
	for _, at := range []time.Duration{10, 20, 50, 100, 500, 1000} {
		at *= time.Millisecond
		s.At(at, func() { t.Logf("server conn budget at %v: %.1f Mb/s", at, rpc.ServerConns(srv)[0].Budget()/1e6) })
	}
	var uplinkBps float64
	s.At(time.Second, func() { uplinkBps = float64(uplink.Stats().SentBytes-sentAt250) * 8 / 0.75 })
	if err := s.Run(time.Second + 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	atStart := startBudget / (8 * respWire) // responses a second the start budget paces out
	t.Logf("%d calls completed (%d failed); the start budget paces %.0f/s; budget at 250 ms %.1f Mb/s, uplink carried %.1f Mb/s",
		completed, failed, atStart, budgetAt250/1e6, uplinkBps/1e6)
	if failed != 0 {
		t.Errorf("%d calls failed", failed)
	}
	if float64(completed) < 3*atStart {
		t.Errorf("%d calls completed in one second, want several times the %.0f/s the 20 Mb/s start value allows", completed, atStart)
	}
	if budgetAt250 < uplinkBps || budgetAt250 <= startBudget {
		t.Errorf("server conn budget at 250 ms is %.1f Mb/s: want above its 20 Mb/s start and at least the %.1f Mb/s its uplink carries",
			budgetAt250/1e6, uplinkBps/1e6)
	}
}
