package core

import (
	"testing"
	"time"
)

func TestControllerAdditiveIncrease(t *testing.T) {
	c := NewController(1e6)
	now := time.Duration(0)
	// Healthy acks at a steady 20 ms RTT for one second.
	for i := 0; i < 100; i++ {
		now += 10 * time.Millisecond
		c.OnAck(now, 20*time.Millisecond)
	}
	// ~1 s at 1 Mb/s/s gain => ~+1 Mb/s.
	if got := c.Budget(); got < 1.5e6 || got > 2.5e6 {
		t.Errorf("budget = %v, want ~2e6", got)
	}
	if c.Decreases != 0 {
		t.Errorf("unexpected decreases: %d", c.Decreases)
	}
}

func TestControllerDelayTriggersDecrease(t *testing.T) {
	c := NewController(10e6)
	now := time.Duration(0)
	for i := 0; i < 20; i++ {
		now += 10 * time.Millisecond
		c.OnAck(now, 20*time.Millisecond)
	}
	before := c.Budget()
	// RTT jumps by 60 ms (> 15 ms threshold); srtt crosses after a few
	// samples.
	for i := 0; i < 20; i++ {
		now += 10 * time.Millisecond
		c.OnAck(now, 80*time.Millisecond)
	}
	if c.Decreases == 0 {
		t.Fatal("delay rise did not trigger a decrease")
	}
	if c.Budget() >= before {
		t.Errorf("budget %v did not drop from %v", c.Budget(), before)
	}
}

func TestControllerDecreaseRateLimited(t *testing.T) {
	c := NewController(10e6)
	now := 100 * time.Millisecond
	c.OnAck(now, 20*time.Millisecond) // base = srtt = 20 ms
	// Elevate the delay signal modestly (above trigger/2, below the
	// trigger) so losses are treated as congestion without OnAck itself
	// cutting.
	for i := 0; i < 60; i++ {
		now += 5 * time.Millisecond
		c.OnAck(now, 40*time.Millisecond)
	}
	if c.Decreases != 0 {
		t.Fatalf("setup triggered %d decreases", c.Decreases)
	}
	// A burst of loss signals within one base RTT must produce one cut.
	for i := 0; i < 10; i++ {
		c.OnLoss(now+time.Duration(i)*time.Millisecond, true)
	}
	if c.Decreases != 1 {
		t.Errorf("decreases = %d, want 1", c.Decreases)
	}
}

func TestControllerIgnoresDiscardableLoss(t *testing.T) {
	c := NewController(10e6)
	c.OnLoss(time.Second, false)
	if c.Decreases != 0 || c.Budget() != 10e6 {
		t.Errorf("discardable loss should not cut budget")
	}
}

func TestControllerIgnoresRandomLossWhenDelayHealthy(t *testing.T) {
	c := NewController(10e6)
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		now += 10 * time.Millisecond
		c.OnAck(now, 20*time.Millisecond)
	}
	before := c.Budget()
	c.OnLoss(now, true) // valuable loss, but delay is at baseline
	if c.Decreases != 0 {
		t.Errorf("healthy-delay loss should be ignored, got %d decreases", c.Decreases)
	}
	if c.RandomLosses != 1 {
		t.Errorf("RandomLosses = %d, want 1", c.RandomLosses)
	}
	if c.Budget() < before {
		t.Error("budget dropped on random loss")
	}
}

func TestControllerBudgetFloorsAndCaps(t *testing.T) {
	c := NewController(100e3)
	now := time.Duration(0)
	c.OnAck(now, 20*time.Millisecond) // establish the baseline
	// Sustained heavy delay keeps cutting until the floor (the first big
	// jump inflates the jitter estimate, which must decay before the
	// adaptive trigger fires again — hence the long horizon).
	for i := 0; i < 600; i++ {
		now += 20 * time.Millisecond
		c.OnAck(now, 200*time.Millisecond)
	}
	if got := c.Budget(); got != 64e3 {
		t.Errorf("budget = %v, want floor 64e3", got)
	}

	c2 := NewController(1e9)
	c2.ObservePeerRate(2e9)
	now = 0
	for i := 0; i < 50; i++ {
		now += 10 * time.Millisecond
		c2.OnAck(now, 10*time.Millisecond)
	}
	if got := c2.Budget(); got != 1e9 {
		t.Errorf("budget = %v, want the 1 Gb/s cap", got)
	}
}

func TestControllerRecoveryGrowth(t *testing.T) {
	// Below the peer's observed rate, a calm queue-free path lets the budget
	// climb proportionally — orders of magnitude faster than the additive
	// gain.
	grow := func(peerRate float64, rtt time.Duration) float64 {
		c := NewController(100e3)
		c.ObservePeerRate(peerRate)
		now := time.Duration(0)
		c.OnAck(now, 20*time.Millisecond)
		for i := 0; i < 100; i++ {
			now += 10 * time.Millisecond
			c.OnAck(now, rtt)
		}
		return c.Budget()
	}
	additive := grow(0, 20*time.Millisecond)
	proportional := grow(1e9, 20*time.Millisecond)
	if proportional < 4*additive {
		t.Errorf("recovery growth %v not much faster than additive %v", proportional, additive)
	}

	// But with the delay hovering near the trigger (standing queue), growth
	// stays additive however far below the peer's rate the budget is.
	nearSat := grow(1e9, 40*time.Millisecond) // excess ~20ms, below the 25ms trigger
	if nearSat > 2*additive {
		t.Errorf("no-headroom growth %v should match additive %v", nearSat, additive)
	}
}

func TestControllerOnChangeFires(t *testing.T) {
	c := NewController(1e6)
	calls := 0
	c.SetOnChange(func() { calls++ })
	c.OnAck(10*time.Millisecond, 20*time.Millisecond)
	c.OnAck(20*time.Millisecond, 20*time.Millisecond)
	c.OnLoss(300*time.Millisecond, true)
	if calls == 0 {
		t.Error("OnChange never fired")
	}
}

func TestControllerAccessors(t *testing.T) {
	c := NewController(1e6)
	c.OnAck(10*time.Millisecond, 20*time.Millisecond)
	c.OnAck(20*time.Millisecond, 30*time.Millisecond)
	if c.SRTT() == 0 || c.BaseRTT() != 20*time.Millisecond {
		t.Errorf("srtt=%v base=%v", c.SRTT(), c.BaseRTT())
	}
	if c.Jitter() == 0 {
		t.Error("jitter should be nonzero after differing samples")
	}
}
