package faults

import (
	"testing"
	"time"

	"marnet/internal/simnet"
)

// chaoticConfig exercises every probabilistic knob at once.
func chaoticConfig() DirConfig {
	return DirConfig{
		GE:           &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0.01, LossBad: 0.5},
		Dup:          0.05,
		Reorder:      0.1,
		ReorderDelay: 3 * time.Millisecond,
		Corrupt:      0.02,
		Delay:        2 * time.Millisecond,
		Jitter:       4 * time.Millisecond,
		RateBps:      5e6,
	}
}

// TestEngineDeterministicAcrossInstances: two engines built from the same
// seed and config must make byte-identical decisions for an identical
// packet sequence — the property every chaos experiment's reproducibility
// rests on.
func TestEngineDeterministicAcrossInstances(t *testing.T) {
	a := newEngine(chaoticConfig(), 1234)
	b := newEngine(chaoticConfig(), 1234)
	now := time.Duration(0)
	for i := 0; i < 20000; i++ {
		now += 500 * time.Microsecond
		size := 200 + (i*37)%1200
		va := a.decide(now, size)
		vb := b.decide(now, size)
		if va != vb {
			t.Fatalf("packet %d: decisions diverged: %+v vs %+v", i, va, vb)
		}
	}
	if a.counters() != b.counters() {
		t.Fatalf("counters diverged:\n%+v\n%+v", a.counters(), b.counters())
	}
	c := a.counters()
	if c.Dropped == 0 || c.Duplicated == 0 || c.Reordered == 0 || c.Corrupted == 0 {
		t.Fatalf("config failed to exercise all knobs: %+v", c)
	}
}

// TestEngineSeedSensitivity: a different seed must actually change the
// decision stream (otherwise the determinism test above proves nothing).
func TestEngineSeedSensitivity(t *testing.T) {
	a := newEngine(chaoticConfig(), 1234)
	b := newEngine(chaoticConfig(), 4321)
	now := time.Duration(0)
	diverged := false
	for i := 0; i < 5000 && !diverged; i++ {
		now += 500 * time.Microsecond
		if a.decide(now, 1000) != b.decide(now, 1000) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// TestLinkFilterTimelineDeterminism: two LinkFilters with the same seed,
// config, and scripted timeline must agree on every verdict across the
// timeline's phase changes (blackhole window, config swap).
func TestLinkFilterTimelineDeterminism(t *testing.T) {
	mk := func() *LinkFilter {
		return NewLinkFilter(chaoticConfig(), 99,
			Event{At: 200 * time.Millisecond, Blackhole: On},
			Event{At: 400 * time.Millisecond, Blackhole: Off},
			Event{At: 600 * time.Millisecond, Set: &DirConfig{Loss: 0.3, Delay: time.Millisecond}},
		)
	}
	fa, fb := mk(), mk()
	now := time.Duration(0)
	sawBlackhole := false
	for i := 0; i < 10000; i++ {
		now += 100 * time.Microsecond
		pkt := &simnet.Packet{Seq: int64(i), Size: 100 + (i*53)%1100}
		va := fa.Filter(pkt, now)
		vb := fb.Filter(pkt, now)
		if va != vb {
			t.Fatalf("packet %d at %v: verdicts diverged: %+v vs %+v", i, now, va, vb)
		}
		// Events fire at At <= now, so the window is (200ms, 400ms).
		if now > 200*time.Millisecond && now < 400*time.Millisecond {
			if !va.Drop {
				t.Fatalf("packet %d at %v forwarded through the blackhole window", i, now)
			}
			sawBlackhole = true
		}
	}
	if !sawBlackhole {
		t.Fatal("timeline never entered the blackhole window")
	}
	if fa.Counters() != fb.Counters() {
		t.Fatalf("counters diverged:\n%+v\n%+v", fa.Counters(), fb.Counters())
	}
}
