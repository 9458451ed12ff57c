package marsim

import (
	"fmt"
	"sort"
	"time"

	"marnet/internal/core"
	"marnet/internal/phy"
	"marnet/internal/rpc"
	"marnet/internal/wire"
)

// This file holds the canonical seeded scenarios: each builds the REAL
// client/server stack (an rpc client retrying inside the call deadline,
// over a wire conn that re-binds itself after an outage, over the
// simulated network) and scripts one of the paper's failure modes. They are the repo's reproducible experiments: same seed, same
// byte-identical trace.

// methodRecognize is the simulated offloaded-recognition RPC method.
const methodRecognize = 7

// StateTransition is one observed session liveness change, stamped with
// the exact virtual time it fired.
type StateTransition struct {
	State wire.State
	At    time.Duration
}

// Result summarizes one canonical scenario run.
type Result struct {
	Trace     []byte
	TraceHash uint64
	SimTime   time.Duration // virtual time simulated

	Calls, OKs, Fails int64
	Reconnects        int64
	Transitions       []StateTransition

	Client rpc.ClientStats
	Server rpc.ServerStats
	Tiers  []TierResult // overload storm only
}

// TierResult is one priority class's outcome in the overload storm.
type TierResult struct {
	Prio      core.Priority
	Offered   int64
	Succeeded int64
	P99       time.Duration // client-observed latency of successes
}

// workload issues one recognition-offload call per period over a client,
// entirely via CallAsync: nothing ever blocks the simulation loop.
type workload struct {
	s        *Scenario
	cl       *rpc.Client
	prio     core.Priority
	req      []byte
	deadline time.Duration
	period   time.Duration

	stopped           bool
	calls, oks, fails int64
	marked, settled   int64 // the calls issued by the mark, and how many of them settled after it
}

func startWorkload(s *Scenario, cl *rpc.Client, prio core.Priority, size int, period, deadline time.Duration) *workload {
	w := &workload{s: s, cl: cl, prio: prio, req: make([]byte, size),
		deadline: deadline, period: period}
	w.tick()
	return w
}

func (w *workload) tick() {
	if w.stopped {
		return
	}
	w.calls++
	seq := w.calls
	w.cl.CallAsync(methodRecognize, w.req, w.prio, w.deadline, func(_ []byte, err error) {
		if w.stopped {
			return // teardown failure of an in-flight call, not workload data
		}
		if seq <= w.marked {
			w.settled++
		}
		if err == nil {
			w.oks++
			w.s.Logf("call %d ok", seq)
		} else {
			w.fails++
			w.s.Logf("call %d err: %v", seq, err)
		}
	})
	w.s.Sim.Schedule(w.period, w.tick)
}

func (w *workload) stop() { w.stopped = true }

// mark starts counting how the calls in flight now settle, and reports
// how many there are.
func (w *workload) mark() int64 {
	w.marked = w.calls
	return w.calls - w.oks - w.fails
}

// simServer starts the real rpc server on a fresh backbone endpoint with
// a modeled service time: its slots are held by timers, so it starts no
// goroutine.
func simServer(s *Scenario, service time.Duration, workers int) (*rpc.Server, *Endpoint, error) {
	ep := s.Net.NewEndpoint("server", phy.Backbone)
	srv, err := rpc.NewServer("sim", nil,
		func(uint8, []byte) []byte { return []byte("ok") },
		rpc.WithPacketConn(ep),
		rpc.WithClock(s.Clock),
		rpc.WithWorkers(workers),
		rpc.WithServiceModel(func(uint8, []byte) time.Duration { return service }))
	if err != nil {
		return nil, nil, err
	}
	return srv, ep, nil
}

// RunHandover is the Table II vertical-handover scenario: a mobile client
// streams recognition calls over 802.11n, then hands over to LTE mid-run.
// The session must survive the radio swap without a single reconnect.
func RunHandover(seed int64) (*Result, error) {
	s := NewScenario("handover", seed)
	srv, serverEp, err := simServer(s, 8*time.Millisecond, 4)
	if err != nil {
		return nil, err
	}
	host := s.Net.NewHost("mobile", phy.WiFi80211n)

	res := &Result{}
	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Clock:  s.Clock,
		Dialer: host.Dialer(serverEp),
		Seed:   seed + 1,
		Retry:  rpc.RetryPolicy{Max: 2},
		OnStateChange: func(st wire.State) {
			res.Transitions = append(res.Transitions, StateTransition{st, s.Sim.Now()})
			s.Logf("session %v", st)
		},
	})
	if err != nil {
		return nil, err
	}
	// 20 FPS with a deadline sized for the slow radio: the 802.11n profile
	// alone costs 150-240 ms RTT with jitter — the paper's point that Wi-Fi
	// latencies dwarf the 75 ms loop budget. Each retry attempt gets half
	// the deadline, so 600 ms keeps one attempt's share above the RTT tail.
	w := startWorkload(s, cl, core.PrioHighest, 800, 50*time.Millisecond, 600*time.Millisecond)

	var oksBefore int64
	s.At(3*time.Second, func() {
		oksBefore = w.oks
		host.SetProfile(phy.LTE)
	})

	s.Defer(func() { srv.Close() })
	s.Defer(func() {
		res.Reconnects = cl.Stats().Reconnects
		w.stop()
		cl.Close()
	})
	s.Check(func() error {
		if oksBefore == 0 {
			return fmt.Errorf("no call succeeded on Wi-Fi before the handover")
		}
		if w.oks <= oksBefore {
			return fmt.Errorf("no call succeeded on LTE after the handover")
		}
		if res.Reconnects != 0 {
			return fmt.Errorf("handover forced %d reconnects, want 0", res.Reconnects)
		}
		return nil
	})
	if err := s.Run(6 * time.Second); err != nil {
		return nil, err
	}
	return fillResult(res, s, w, cl, srv), nil
}

// RunCongestion is the Figure 3 asymmetric-uplink scenario: a competing
// upload saturates the HSPA+ uplink at 120% capacity, queueing delay
// blows through the call deadline, and the path recovers once the
// competing flow stops.
func RunCongestion(seed int64) (*Result, error) {
	s := NewScenario("congestion", seed)
	srv, serverEp, err := simServer(s, 5*time.Millisecond, 4)
	if err != nil {
		return nil, err
	}
	host := s.Net.NewHost("mobile", phy.HSPAPlus)

	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Clock:  s.Clock,
		Dialer: host.Dialer(serverEp),
		Seed:   seed + 1,
		Retry:  rpc.RetryPolicy{Max: 2},
	})
	if err != nil {
		return nil, err
	}
	w := startWorkload(s, cl, core.PrioHighest, 600, 100*time.Millisecond, 600*time.Millisecond)

	var stopCross func()
	var okPre, failPre, failMid, ok7s int64
	s.At(2*time.Second, func() {
		okPre, failPre = w.oks, w.fails
		// 1.8 Mb/s offered into a 1.5 Mb/s uplink: the queue grows ~200 ms/s.
		stopCross = host.StartCrossTraffic(1.8e6, 1200)
	})
	s.At(5*time.Second, func() {
		failMid = w.fails
		stopCross()
	})
	s.At(7*time.Second, func() { ok7s = w.oks })

	res := &Result{}
	s.Defer(func() { srv.Close() })
	s.Defer(func() {
		res.Reconnects = cl.Stats().Reconnects
		w.stop()
		cl.Close()
	})
	s.Check(func() error {
		if okPre == 0 {
			return fmt.Errorf("no call succeeded before congestion")
		}
		if failMid-failPre == 0 {
			return fmt.Errorf("uplink congestion caused zero failures — scenario is vacuous")
		}
		if w.oks-ok7s == 0 {
			return fmt.Errorf("no call succeeded in the final second — path never recovered")
		}
		up, _ := host.eps[0].Links()
		if up.Stats().MaxQueueLen < 20 {
			return fmt.Errorf("uplink queue peaked at %d packets — congestion never built", up.Stats().MaxQueueLen)
		}
		return nil
	})
	if err := s.Run(8 * time.Second); err != nil {
		return nil, err
	}
	return fillResult(res, s, w, cl, srv), nil
}

// RunPartitionResume walks the client out of coverage: keepalives detect
// the dead path, the conn re-binds to fresh endpoints until the partition
// heals, and calls flow again on the same conn with sequence numbers
// preserved. Every call in flight at the dead verdict settles exactly once,
// none hung and none twice: as a failure, since its 250 ms deadline ends
// inside the partition and a re-bind does not re-send what the old path
// carried.
func RunPartitionResume(seed int64) (*Result, error) {
	s := NewScenario("partition-resume", seed)
	srv, serverEp, err := simServer(s, 4*time.Millisecond, 4)
	if err != nil {
		return nil, err
	}
	host := s.Net.NewHost("mobile", phy.WiFiLocal)

	res := &Result{}
	var w *workload
	var inFlight int64 // calls in flight at the dead verdict
	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Clock:     s.Clock,
		Dialer:    host.Dialer(serverEp),
		Seed:      seed + 1,
		Keepalive: 100 * time.Millisecond,
		Retry:     rpc.RetryPolicy{Max: 2},
		OnStateChange: func(st wire.State) {
			res.Transitions = append(res.Transitions, StateTransition{st, s.Sim.Now()})
			s.Logf("session %v at %s", st, stamp(s.Sim.Now()))
			if st == wire.StateDead {
				inFlight = w.mark()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	w = startWorkload(s, cl, core.PrioHighest, 400, 50*time.Millisecond, 250*time.Millisecond)

	const partitionAt, healAt = 2 * time.Second, 3500 * time.Millisecond
	s.At(partitionAt, func() { host.Partition(true) })
	s.At(healAt, func() { host.Partition(false) })
	var okAtHeal int64
	s.At(healAt+500*time.Millisecond, func() { okAtHeal = w.oks })

	s.Defer(func() { srv.Close() })
	s.Defer(func() {
		res.Reconnects = cl.Stats().Reconnects
		w.stop()
		cl.Close()
	})
	s.Check(func() error {
		var deadAt, activeAt time.Duration
		for _, tr := range res.Transitions {
			if tr.State == wire.StateDead && deadAt == 0 && tr.At > partitionAt {
				deadAt = tr.At
			}
			if tr.State == wire.StateActive && tr.At > healAt && activeAt == 0 {
				activeAt = tr.At
			}
		}
		if deadAt == 0 {
			return fmt.Errorf("keepalive never declared the partitioned path dead")
		}
		if deadAt > partitionAt+time.Second {
			return fmt.Errorf("dead-path detection took %v, want < 1s after partition", deadAt-partitionAt)
		}
		if activeAt == 0 {
			return fmt.Errorf("session never resumed after the partition healed")
		}
		if activeAt > healAt+time.Second {
			return fmt.Errorf("resume took %v after heal, want < 1s", activeAt-healAt)
		}
		if res.Reconnects < 1 {
			return fmt.Errorf("session recorded no reconnects across the partition")
		}
		if w.oks <= okAtHeal {
			return fmt.Errorf("no call succeeded on the resumed session")
		}
		if inFlight == 0 || w.settled != inFlight {
			return fmt.Errorf("%d settlements of the %d calls in flight at the dead verdict", w.settled, inFlight)
		}
		return nil
	})
	if err := s.Run(6 * time.Second); err != nil {
		return nil, err
	}
	return fillResult(res, s, w, cl, srv), nil
}

// RunOverloadStorm is the virtual-time overload storm: four priority
// tiers offer 4x the server's capacity for 1.5 simulated seconds. The
// admission gate must keep the protected tier untouched, concentrate
// shedding at the bottom, and hold every admitted call inside the budget.
func RunOverloadStorm(seed int64) (*Result, error) {
	const (
		stormService = 5 * time.Millisecond
		stormWorkers = 4
		stormBudget  = 150 * time.Millisecond
		ticks        = 300
		tickEvery    = 5 * time.Millisecond
	)
	s := NewScenario("overload-storm", seed)
	srv, serverEp, err := simServer(s, stormService, stormWorkers)
	if err != nil {
		return nil, err
	}

	// Capacity is 800 req/s; 2+4+5+5 calls per 5 ms tick = 3200 req/s,
	// skewed so the protected tier stays well within capacity.
	tiers := []struct {
		prio    core.Priority
		perTick int
	}{
		{core.PrioHighest, 2},
		{core.PrioNoDiscard, 4},
		{core.PrioNoDelay, 5},
		{core.PrioLowest, 5},
	}
	type tierState struct {
		offered, succeeded int64
		lats               []time.Duration
	}
	states := make([]*tierState, len(tiers))
	clients := make([]*rpc.Client, len(tiers))
	for i, tr := range tiers {
		states[i] = &tierState{}
		host := s.Net.NewHost(fmt.Sprintf("tier%d", i), phy.WiFiLocal)
		cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
			Clock:    s.Clock,
			Dialer:   host.Dialer(serverEp),
			Priority: tr.prio,
			Seed:     seed + int64(100+i),
		})
		if err != nil {
			return nil, err
		}
		clients[i] = cl
	}

	var tick func(n int)
	tick = func(n int) {
		if n >= ticks {
			return
		}
		for i := range tiers {
			st := states[i]
			for k := 0; k < tiers[i].perTick; k++ {
				st.offered++
				t0 := s.Clock.Now()
				clients[i].CallAsync(methodRecognize, nil, tiers[i].prio, stormBudget, func(_ []byte, err error) {
					if err == nil {
						st.succeeded++
						st.lats = append(st.lats, s.Clock.Since(t0))
					}
				})
			}
		}
		s.Sim.Schedule(tickEvery, func() { tick(n + 1) })
	}
	tick(0)

	res := &Result{}
	s.Defer(func() { srv.Close() })
	s.Defer(func() {
		for _, cl := range clients {
			cl.Close()
		}
	})
	// Horizon: storm end plus one full budget, so every outstanding call
	// resolves before teardown.
	if err := s.Run(ticks*tickEvery + stormBudget + 50*time.Millisecond); err != nil {
		return nil, err
	}
	for i, st := range states {
		res.Calls += st.offered
		res.OKs += st.succeeded
		res.Fails += st.offered - st.succeeded
		res.Tiers = append(res.Tiers, TierResult{
			Prio: tiers[i].prio, Offered: st.offered, Succeeded: st.succeeded,
			P99: p99(st.lats),
		})
	}
	res.Server = srv.Stats()
	res.Trace = s.Trace.Bytes()
	res.TraceHash = s.Trace.Hash()
	res.SimTime = s.Sim.Now()
	return res, nil
}

// RunSoak is the time-compressed endurance run: simMinutes of virtual
// time cycling handovers and periodic partitions under a steady call
// load. Minutes of virtual time complete in well under a second of wall
// time, and the trace is byte-identical for a given seed.
func RunSoak(seed int64, simMinutes int) (*Result, error) {
	s := NewScenario("soak", seed)
	srv, serverEp, err := simServer(s, 6*time.Millisecond, 4)
	if err != nil {
		return nil, err
	}
	host := s.Net.NewHost("mobile", phy.WiFi80211n)

	res := &Result{}
	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Clock:  s.Clock,
		Dialer: host.Dialer(serverEp),
		Seed:   seed + 1,
		Retry:  rpc.RetryPolicy{Max: 2},
		OnStateChange: func(st wire.State) {
			res.Transitions = append(res.Transitions, StateTransition{st, s.Sim.Now()})
			s.Logf("session %v at %s", st, stamp(s.Sim.Now()))
		},
	})
	if err != nil {
		return nil, err
	}
	w := startWorkload(s, cl, core.PrioHighest, 500, 200*time.Millisecond, 800*time.Millisecond)

	for m := 0; m < simMinutes; m++ {
		minute := time.Duration(m) * time.Minute
		if m%2 == 0 {
			s.At(minute+20*time.Second, func() { host.SetProfile(phy.LTE) })
		} else {
			s.At(minute+20*time.Second, func() { host.SetProfile(phy.WiFi80211n) })
		}
		if m%3 == 1 {
			s.At(minute+40*time.Second, func() { host.Partition(true) })
			s.At(minute+45*time.Second, func() { host.Partition(false) })
		}
	}

	s.Defer(func() { srv.Close() })
	s.Defer(func() {
		res.Reconnects = cl.Stats().Reconnects
		w.stop()
		cl.Close()
	})
	s.Check(func() error {
		if w.oks < w.calls/2 {
			return fmt.Errorf("soak: only %d/%d calls succeeded", w.oks, w.calls)
		}
		return nil
	})
	if err := s.Run(time.Duration(simMinutes) * time.Minute); err != nil {
		return nil, err
	}
	return fillResult(res, s, w, cl, srv), nil
}

func fillResult(res *Result, s *Scenario, w *workload, cl *rpc.Client, srv *rpc.Server) *Result {
	res.Calls, res.OKs, res.Fails = w.calls, w.oks, w.fails
	res.Client = cl.Stats()
	res.Server = srv.Stats()
	res.Trace = s.Trace.Bytes()
	res.TraceHash = s.Trace.Hash()
	res.SimTime = s.Sim.Now()
	return res
}

func p99(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := len(lats)*99/100 - 1
	if idx < 0 {
		idx = 0
	}
	return lats[idx]
}
