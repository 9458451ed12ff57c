package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// fluidLink is a 1 ms fluid model of one sender behind one bottleneck: each
// step the sender offers min(demand, Budget()) into a queue the link drains
// at capacity, the queue is clipped to 300 ms of link, and one ack arrives
// carrying the base RTT plus the queueing delay of one RTT earlier.
type fluidLink struct {
	capacity float64       // bits/s
	rtt      time.Duration // base
	demand   float64       // bits/s the application could send
	peerRate float64       // what ObservePeerRate is told every 10 ms (0: never)
	// lateAcks makes 16 consecutive acks arrive 100 ms late every 2 s: what a
	// frozen VM looks like to the controller.
	lateAcks bool
	// shortcut, when set, runs after every ack: the variants the doc comment
	// of TestProbeDoesNotBloatSlowDownlink rules out.
	shortcut func(c *Controller)
}

type fluidResult struct {
	meanDelay, p99Delay time.Duration // queueing delay
	utilisation         float64       // share of link capacity used
	servedBy            time.Duration // first instant the budget covered the demand (-1: never)
	finalBudget         float64
}

func (l fluidLink) run(c *Controller, d time.Duration) fluidResult {
	const step = time.Millisecond
	n := int(d / step)
	delays := make([]time.Duration, n)
	lag := max(int(l.rtt/step), 1)
	var queue, carried float64
	res := fluidResult{servedBy: -1}
	for i := 0; i < n; i++ {
		now := time.Duration(i+1) * step
		if l.peerRate > 0 && i%10 == 0 {
			c.ObservePeerRate(l.peerRate)
		}
		queue += math.Min(l.demand, c.Budget()) * step.Seconds()
		out := math.Min(queue, l.capacity*step.Seconds())
		queue -= out
		carried += out
		queue = math.Min(queue, 0.3*l.capacity)
		delays[i] = time.Duration(queue / l.capacity * float64(time.Second))
		ack := l.rtt + delays[max(i-lag, 0)]
		if l.lateAcks && i%2000 >= 1000 && i%2000 < 1016 {
			ack += 100 * time.Millisecond
		}
		c.OnAck(now, ack)
		if l.shortcut != nil {
			l.shortcut(c)
		}
		if res.servedBy < 0 && c.Budget() >= l.demand {
			res.servedBy = now
		}
	}
	var sum time.Duration
	for _, q := range delays {
		sum += q
	}
	slices.Sort(delays)
	res.meanDelay, res.p99Delay = sum/time.Duration(n), delays[n*99/100]
	res.utilisation = carried / (l.capacity * d.Seconds())
	res.finalBudget = c.Budget()
	return res
}

// TestProbeDoesNotBloatSlowDownlink is the case Section IV-D's asymmetry
// does not cover: requests arrive at 8 Mb/s but the way back is a 2 Mb/s
// link the responses could fill. Probing toward the peer's rate must leave
// that link as the controller alone would have. On the 2 Mb/s / 20 ms link,
// 20 s from a 1 Mb/s start, the model reads (mean / p99 queueing delay,
// link utilisation):
//
//	never observed a peer rate (the parent)        9.3 /  32.0 ms  0.975
//	probe capped by the last cut (this design)    10.5 /  32.2 ms  0.987
//	probe without the cap                         33.6 /  78.8 ms
//	budget := peer rate on every healthy ack     153   / 271   ms
//
// The smoothed RTT lags 25 %/RTT growth, so an uncapped probe has refilled
// the queue before the delay signal says so, after every cut; the cap leaves
// only the additive step above the budget the link last refused. The last
// two rows are asserted as well (by poking the controller from outside), so
// the shortcuts stay ruled out by a test and not by this comment. On a link
// that does carry the demand (1 Gb/s, 200 µs, 74 Mb/s of responses, from the
// rpc server's 20 Mb/s start) the probe must serve it within 300 ms, also
// when 16 acks arrive 100 ms late every 2 s, as after a VM freeze: such a
// burst is one cut, and the cap it leaves is the budget from before it.
func TestProbeDoesNotBloatSlowDownlink(t *testing.T) {
	const span = 20 * time.Second
	outside := func(got, want float64) bool { return got > want*1.25 || got < want*0.75 }
	for _, rtt := range []time.Duration{20 * time.Millisecond, 8 * time.Millisecond} {
		slow := fluidLink{capacity: 2e6, rtt: rtt, demand: 100e6}
		run := func(peerRate float64, shortcut func(*Controller)) fluidResult {
			slow.peerRate, slow.shortcut = peerRate, shortcut
			return slow.run(NewController(1e6), span)
		}
		alone := run(0, nil)
		probe := run(8e6, nil)
		uncapped := run(8e6, func(c *Controller) { c.cutFrom = 0 })
		jump := run(8e6, func(c *Controller) {
			if c.srtt <= c.baseRTT+c.trigger() && c.budget < c.peerRate {
				c.budget = c.peerRate
			}
		})
		t.Logf("2 Mb/s, %v: alone %v / %v util %.3f; probing %v / %v util %.3f; uncapped %v / %v; jump %v / %v", rtt,
			alone.meanDelay, alone.p99Delay, alone.utilisation, probe.meanDelay, probe.p99Delay, probe.utilisation,
			uncapped.meanDelay, uncapped.p99Delay, jump.meanDelay, jump.p99Delay)
		if outside(float64(probe.meanDelay), float64(alone.meanDelay)) ||
			outside(float64(probe.p99Delay), float64(alone.p99Delay)) ||
			outside(probe.utilisation, alone.utilisation) {
			t.Errorf("%v: probing reads %v / %v at utilisation %.3f, more than 25%% from %v / %v at %.3f without a peer rate",
				rtt, probe.meanDelay, probe.p99Delay, probe.utilisation, alone.meanDelay, alone.p99Delay, alone.utilisation)
		}
		if !outside(float64(uncapped.meanDelay), float64(alone.meanDelay)) || !outside(float64(jump.meanDelay), float64(alone.meanDelay)) {
			t.Errorf("%v: the shortcuts no longer bloat the queue (mean %v and %v against %v): is this still a model of the slow downlink?",
				rtt, uncapped.meanDelay, jump.meanDelay, alone.meanDelay)
		}
	}

	for _, late := range []bool{false, true} {
		fat := fluidLink{capacity: 1e9, rtt: 200 * time.Microsecond, demand: 74e6, peerRate: 300e6, lateAcks: late}
		got := fat.run(NewController(20e6), span)
		t.Logf("1 Gb/s, late acks %v: demand served by %v, final budget %.0f Mb/s", late, got.servedBy, got.finalBudget/1e6)
		if got.servedBy < 0 || got.servedBy > 300*time.Millisecond || got.finalBudget < fat.demand {
			t.Errorf("late acks %v: 74 Mb/s of demand served by %v (want within 300 ms), budget ends at %.0f Mb/s",
				late, got.servedBy, got.finalBudget/1e6)
		}
	}
}

// TestControllerProbesTowardPeerRate pins the rate-discovery law: the
// recovery growth (25 % per base RTT, only when calm and queue-free) is in
// force below min(peer rate, budget at the last cut), stops exactly there,
// and changes nothing for a controller whose peer sends less than its budget.
func TestControllerProbesTowardPeerRate(t *testing.T) {
	const ms = time.Millisecond
	// feed gives c one ack per millisecond for d, and reports the largest and
	// smallest budget step it saw, as multiples of the additive step.
	feed := func(c *Controller, now *time.Duration, d, rtt time.Duration) (lo, hi float64) {
		lo = math.Inf(1)
		for end := *now + d; *now < end; {
			*now += ms
			before := c.Budget()
			c.OnAck(*now, rtt)
			step := (c.Budget() - before) / (gain * ms.Seconds())
			lo, hi = math.Min(lo, step), math.Max(hi, step)
		}
		return lo, hi
	}
	additive := func(step float64) bool { return math.Abs(step-1) < 1e-6 }
	// stoodAt feeds healthy acks until the budget stands at target, to the
	// bit per second (budget + (target - budget) may be an ulp off target),
	// and reports the largest step on the way there.
	stoodAt := func(c *Controller, now *time.Duration, rtt time.Duration, target float64) (ok bool, hi float64) {
		for i := 0; i < 500 && !ok; i++ {
			_, step := feed(c, now, ms, rtt)
			ok, hi = math.Abs(c.Budget()-target) < 1, math.Max(hi, step)
		}
		return ok, hi
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *Controller)
	}{
		{"healthy, calm, headroom: 25 % per base RTT, stopping exactly at the target", func(t *testing.T, c *Controller) {
			c.ObservePeerRate(200e6)
			now := time.Duration(0)
			feed(c, &now, ms, 200*time.Microsecond) // the first ack only starts the increase clock
			feed(c, &now, BaseRTTFloor, 200*time.Microsecond)
			if g := c.Budget() / 20e6; g < 1.25 || g > 1.29 {
				t.Fatalf("budget grew x%.3f over one base RTT, want 25 %% (compounded per ack: x1.28)", g)
			}
			if ok, _ := stoodAt(c, &now, 200*time.Microsecond, 200e6); !ok {
				t.Fatalf("the probe never stood exactly at the 200 Mb/s target (budget %.0f)", c.Budget())
			}
			if lo, hi := feed(c, &now, 50*ms, 200*time.Microsecond); !additive(lo) || !additive(hi) {
				t.Fatalf("past the target the budget stepped %.3f..%.3f additive steps per ack, want 1", lo, hi)
			}
		}},
		{"delay elevated: no growth, and the cut proceeds", func(t *testing.T, c *Controller) {
			now := time.Duration(0)
			feed(c, &now, 20*ms, 20*ms)
			c.ObservePeerRate(200e6)
			for c.srtt <= c.baseRTT+c.trigger() { // SRTT needs a few samples to cross the trigger
				feed(c, &now, ms, 80*ms)
			}
			before := c.Budget()
			if _, hi := feed(c, &now, 40*ms, 80*ms); hi > 0 || c.Decreases == 0 || c.Budget() >= before {
				t.Fatalf("with SRTT past the trigger: largest step %.3f additive steps, %d decreases, budget %.0f -> %.0f",
					hi, c.Decreases, before, c.Budget())
			}
		}},
		{"after a cut at B: additive for 8 base RTTs, then proportional up to B, then additive", func(t *testing.T, c *Controller) {
			now := time.Duration(0)
			feed(c, &now, 20*ms, 20*ms)
			c.ObservePeerRate(200e6)
			for c.Decreases == 0 {
				feed(c, &now, ms, 80*ms)
			}
			cutAt, cutFrom := now, c.cutFrom
			if cutFrom <= c.Budget() || cutFrom < 20e6 {
				t.Fatalf("cut from %.0f to %.0f", cutFrom, c.Budget())
			}
			feed(c, &now, 100*ms, 20*ms) // SRTT and jitter settle back to the floor
			if c.Decreases != 1 {
				t.Fatalf("%d decreases, the scenario wants one", c.Decreases)
			}
			if lo, hi := feed(c, &now, cutAt+8*20*ms-now, 20*ms); !additive(lo) || !additive(hi) {
				t.Fatalf("inside 8 base RTTs of the cut the budget stepped %.3f..%.3f additive steps, want 1", lo, hi)
			}
			if ok, hi := stoodAt(c, &now, 20*ms, cutFrom); !ok || hi < 10 {
				t.Fatalf("calm again: budget %.0f never stood at the pre-cut %.0f, or got there additively (largest step %.1f additive steps)",
					c.Budget(), cutFrom, hi)
			}
			if lo, hi := feed(c, &now, 50*ms, 20*ms); !additive(lo) || !additive(hi) {
				t.Fatalf("past the pre-cut budget it stepped %.3f..%.3f additive steps per ack, want 1", lo, hi)
			}
		}},
		{"peer rate above MaxBudget: capped", func(t *testing.T, c *Controller) {
			c.ObservePeerRate(2e9)
			now := time.Duration(0)
			feed(c, &now, 400*ms, 200*time.Microsecond)
			if c.Budget() != maxBudget {
				t.Fatalf("budget %.0f, want maxBudget", c.Budget())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, NewController(20e6)) })
	}

	// A peer that sends less than the budget, or was never measured: 1 000
	// seeded acks (congestion episodes and losses included) give the budget
	// series of a controller that never heard of peer rates, value for value.
	for _, peerRate := range []float64{0, 32e3} { // 32 kb/s is under minBudget
		rng := rand.New(rand.NewSource(21))
		plain, told := NewController(20e6), NewController(20e6)
		now := time.Duration(0)
		for i := 0; i < 1000; i++ {
			now += time.Duration(1+rng.Intn(5000)) * time.Microsecond
			rtt := 8*ms + time.Duration(rng.Intn(3000))*time.Microsecond
			if i/100%3 == 2 {
				rtt += 60 * ms // a congestion episode
			}
			if peerRate > 0 && i%7 == 0 {
				told.ObservePeerRate(peerRate)
			}
			plain.OnAck(now, rtt)
			told.OnAck(now, rtt)
			if rng.Intn(20) == 0 {
				plain.OnLoss(now, true)
				told.OnLoss(now, true)
			}
			if plain.Budget() != told.Budget() {
				t.Fatalf("peer rate %.0f, ack %d: budget %.3f, want %.3f as without it", peerRate, i, told.Budget(), plain.Budget())
			}
		}
		if plain.Decreases == 0 {
			t.Fatal("the seeded series never cut: it does not exercise the decrease path")
		}
	}
}
