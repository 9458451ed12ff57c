package obs

import (
	"testing"
	"time"
)

// sloTestConfig: objective 0.9 (10% miss budget), 100 ms slots, 500 ms
// fast window, 2 s slow window, burn thresholds 3 and 1.5, 5-sample
// floor. A 50% miss rate burns at 5.0 — over both thresholds.
func sloTestConfig(clock *manualClock) SLOConfig {
	return SLOConfig{
		Name: "test", Objective: 0.9,
		Slot:       100 * time.Millisecond,
		FastWindow: 500 * time.Millisecond, SlowWindow: 2 * time.Second,
		FastBurn: 3, SlowBurn: 1.5,
		MinSamples: 5, Cooldown: time.Second, Clock: clock,
	}
}

// near reports |got-want| <= 1e-9: burn rates divide by (1-objective),
// which is not exactly representable.
func near(got, want float64) bool {
	d := got - want
	return d < 1e-9 && d > -1e-9
}

func TestSLONilIsSafe(t *testing.T) {
	var s *SLO
	s.Observe(true)
	s.Observe(false)
	if s.Triggers() != 0 {
		t.Error("nil SLO reported state")
	}
	if st := s.State(); st.HitRatio() != 1 {
		t.Errorf("nil SLO state hit ratio = %v, want 1", st.HitRatio())
	}
}

func TestSLOBurnMath(t *testing.T) {
	clock := newManualClock()
	s := NewSLO(sloTestConfig(clock))
	// 5 hits + 5 misses inside one slot: miss rate 0.5, allowed 0.1,
	// burn 5.0 on both windows.
	for i := 0; i < 5; i++ {
		s.Observe(true)
		s.Observe(false)
	}
	st := s.State()
	if st.Hits != 5 || st.Misses != 5 {
		t.Fatalf("counts = %d/%d, want 5/5", st.Hits, st.Misses)
	}
	if !near(st.FastBurn, 5) || !near(st.SlowBurn, 5) {
		t.Fatalf("burn = %v/%v, want 5/5", st.FastBurn, st.SlowBurn)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", got)
	}
}

func TestSLOHealthyTrafficNeverTriggers(t *testing.T) {
	clock := newManualClock()
	s := NewSLO(sloTestConfig(clock))
	// 2% misses against a 10% budget: burn 0.2, far under thresholds.
	for i := 0; i < 500; i++ {
		clock.Advance(2 * time.Millisecond)
		s.Observe(i%50 != 0)
	}
	if n := s.Triggers(); n != 0 {
		t.Fatalf("healthy traffic fired %d triggers", n)
	}
}

func TestSLOTriggerCooldownAndOrdinals(t *testing.T) {
	clock := newManualClock()
	cfg := sloTestConfig(clock)
	var fired []SLOTrigger
	cfg.OnTrigger = func(tr SLOTrigger) { fired = append(fired, tr) }
	s := NewSLO(cfg)

	// Sustained 50% misses: the first qualifying miss triggers, the
	// cooldown swallows the rest of the burst.
	for i := 0; i < 20; i++ {
		clock.Advance(10 * time.Millisecond)
		s.Observe(i%2 == 0)
	}
	if len(fired) != 1 {
		t.Fatalf("burst fired %d triggers, want 1 (cooldown)", len(fired))
	}
	if fired[0].Ordinal != 1 || fired[0].Name != "test" {
		t.Errorf("first trigger = %+v", fired[0])
	}
	if fired[0].FastBurn < 3 || fired[0].SlowBurn < 1.5 {
		t.Errorf("trigger below thresholds: %+v", fired[0])
	}

	// Past the cooldown with erosion still ongoing: a second trigger.
	clock.Advance(cfg.Cooldown)
	for i := 0; i < 20; i++ {
		clock.Advance(10 * time.Millisecond)
		s.Observe(i%2 == 0)
	}
	if len(fired) != 2 {
		t.Fatalf("continued erosion fired %d triggers, want 2", len(fired))
	}
	if fired[1].Ordinal != 2 {
		t.Errorf("second trigger ordinal = %d, want 2", fired[1].Ordinal)
	}
	if s.Triggers() != 2 {
		t.Errorf("Triggers() = %d, want 2", s.Triggers())
	}
}

func TestSLOMinSamplesFloor(t *testing.T) {
	clock := newManualClock()
	s := NewSLO(sloTestConfig(clock))
	// 4 observations, all misses: burn is huge but under the 5-sample
	// floor no trigger may fire.
	for i := 0; i < 4; i++ {
		s.Observe(false)
	}
	if n := s.Triggers(); n != 0 {
		t.Fatalf("%d triggers under the MinSamples floor", n)
	}
	s.Observe(false) // fifth sample crosses the floor
	if n := s.Triggers(); n != 1 {
		t.Fatalf("Triggers = %d after crossing the floor, want 1", n)
	}
}

func TestSLOFastWindowRecovers(t *testing.T) {
	clock := newManualClock()
	s := NewSLO(sloTestConfig(clock))
	for i := 0; i < 10; i++ {
		s.Observe(false)
	}
	// Let the bad slot fall out of the 500 ms fast window, then observe
	// clean traffic: the fast burn must drop to zero.
	clock.Advance(time.Second)
	for i := 0; i < 10; i++ {
		clock.Advance(time.Millisecond)
		s.Observe(true)
	}
	st := s.State()
	if st.FastBurn != 0 {
		t.Fatalf("fast burn = %v after recovery, want 0", st.FastBurn)
	}
	if st.SlowBurn == 0 {
		t.Fatal("slow burn forgot the miss burst still inside its window")
	}
}

func TestSLOParentChaining(t *testing.T) {
	clock := newManualClock()
	pcfg := sloTestConfig(clock)
	pcfg.Name = "global"
	parent := NewSLO(pcfg)
	ccfg := sloTestConfig(clock)
	ccfg.Name = "session"
	ccfg.Parent = parent
	child := NewSLO(ccfg)

	for i := 0; i < 10; i++ {
		clock.Advance(10 * time.Millisecond)
		child.Observe(i%2 == 0)
	}
	ps, cs := parent.State(), child.State()
	if ps.Hits != cs.Hits || ps.Misses != cs.Misses {
		t.Fatalf("parent saw %d/%d, child %d/%d", ps.Hits, ps.Misses, cs.Hits, cs.Misses)
	}
	if parent.Triggers() != 1 || child.Triggers() != 1 {
		t.Fatalf("triggers parent=%d child=%d, want 1/1", parent.Triggers(), child.Triggers())
	}
}

func TestSLOObserveIsAllocationFree(t *testing.T) {
	clock := newManualClock()
	s := NewSLO(sloTestConfig(clock))
	var n int
	if a := testing.AllocsPerRun(4096, func() {
		n++
		s.Observe(n%16 != 0)
	}); a != 0 {
		t.Fatalf("Observe allocates %.2f/op, want 0", a)
	}
}
