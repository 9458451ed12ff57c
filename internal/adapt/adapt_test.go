package adapt

import (
	"math"
	"testing"
	"time"

	"marnet/internal/fec"
)

// tickSeq drives a controller through signals at a fixed 100 ms cadence.
func tickSeq(c *Controller, sigs []Signals) []Policy {
	out := make([]Policy, 0, len(sigs))
	for i, s := range sigs {
		out = append(out, c.Tick(time.Duration(i)*100*time.Millisecond, s))
	}
	return out
}

func TestRetxSwitchAtPaperBound(t *testing.T) {
	if RetxAffordableRTT != 37500*time.Microsecond {
		t.Fatalf("RetxAffordableRTT = %v, want 37.5ms", RetxAffordableRTT)
	}
	c := NewController(Config{})
	clean := func(srtt time.Duration) Signals {
		return Signals{SRTT: srtt, Frames: 10}
	}
	p := c.Tick(0, clean(20*time.Millisecond))
	if !p.Retransmit {
		t.Fatalf("RTT 20ms: want ARQ, got FEC %+v", p)
	}
	// Above the bound plus the dead band: flips to FEC with shards set.
	p = c.Tick(100*time.Millisecond, clean(45*time.Millisecond))
	if p.Retransmit {
		t.Fatalf("RTT 45ms: want FEC, got ARQ")
	}
	if p.K < 1 || p.M < 1 {
		t.Fatalf("FEC policy has no code: %+v", p)
	}
	// Inside the dead band: no flip back.
	p = c.Tick(200*time.Millisecond, clean(37*time.Millisecond))
	if p.Retransmit {
		t.Fatalf("RTT 37ms inside dead band: want FEC to hold, got ARQ")
	}
	// Clearly below the band: ARQ again, shards cleared.
	p = c.Tick(300*time.Millisecond, clean(30*time.Millisecond))
	if !p.Retransmit || p.K != 0 || p.M != 0 {
		t.Fatalf("RTT 30ms: want ARQ with no shards, got %+v", p)
	}
}

func TestRetxSwitchNoHysteresisFlaps(t *testing.T) {
	c := NewController(Config{NoHysteresis: true})
	rtts := []time.Duration{36 * time.Millisecond, 39 * time.Millisecond, 36 * time.Millisecond, 39 * time.Millisecond}
	var flips int
	last := true
	for i, r := range rtts {
		p := c.Tick(time.Duration(i)*100*time.Millisecond, Signals{SRTT: r, Frames: 10})
		if p.Retransmit != last {
			flips++
			last = p.Retransmit
		}
	}
	if flips < 3 {
		t.Fatalf("naive switch should flap across the bound, saw %d flips", flips)
	}
}

func TestLadderDegradesAndRecovers(t *testing.T) {
	c := NewController(Config{})
	// Sustained misses walk down the ladder one rung per dwell.
	var sigs []Signals
	for i := 0; i < 30; i++ {
		sigs = append(sigs, Signals{SRTT: 20 * time.Millisecond, Frames: 10, Misses: 10})
	}
	pols := tickSeq(c, sigs)
	if got := pols[len(pols)-1].Mode; got != ModeSkip {
		t.Fatalf("3s of 100%% misses: want ModeSkip, got %v", got)
	}
	// Every transition was exactly one rung.
	prev := ModeFull
	for i, p := range pols {
		d := int(p.Mode) - int(prev)
		if d < 0 || d > 1 {
			t.Fatalf("tick %d: jumped %v -> %v", i, prev, p.Mode)
		}
		prev = p.Mode
	}
	// Recovery: clean signals climb back to full, but only after sustained
	// evidence — never instantly.
	start := c.Ticks()
	for i := 0; i < 200; i++ {
		now := time.Duration(30+i) * 100 * time.Millisecond
		c.Tick(now, Signals{SRTT: 20 * time.Millisecond, Frames: 10})
		if c.Mode() == ModeFull {
			break
		}
	}
	if c.Mode() != ModeFull {
		t.Fatalf("clean path for 20s: want ModeFull, got %v", c.Mode())
	}
	if climb := c.Ticks() - start; climb < 10 {
		t.Fatalf("recovered in %d ticks — upgrade hysteresis not applied", climb)
	}
}

func TestRejectionIsImmediatePressure(t *testing.T) {
	c := NewController(Config{})
	// Warm up clean so miss EWMA is low.
	for i := 0; i < 10; i++ {
		c.Tick(time.Duration(i)*100*time.Millisecond, Signals{Frames: 10})
	}
	if c.Mode() != ModeFull {
		t.Fatalf("clean warmup should hold ModeFull, got %v", c.Mode())
	}
	// A single typed rejection forces a downgrade at the next dwell-eligible
	// tick even though the miss EWMA is still near zero.
	c.Tick(1100*time.Millisecond, Signals{Frames: 10, Misses: 1, Rejections: 1})
	if c.Mode() != ModeFeatures {
		t.Fatalf("server rejection: want ModeFeatures, got %v", c.Mode())
	}
}

func TestProbeEscapesSkip(t *testing.T) {
	c := NewController(Config{})
	now := time.Duration(0)
	step := 100 * time.Millisecond
	for c.Mode() != ModeSkip {
		c.Tick(now, Signals{Frames: 10, Misses: 10})
		now += step
	}
	// In skip nothing ships: zero frames, zero evidence. The probe must
	// still lift the mode within ProbeAfter.
	deadline := now + 6*time.Second
	for now < deadline && c.Mode() == ModeSkip {
		c.Tick(now, Signals{})
		now += step
	}
	if c.Mode() == ModeSkip {
		t.Fatal("controller stuck in ModeSkip with no samples; probe never fired")
	}
	var probed bool
	for _, d := range c.Decisions() {
		if d.Probe {
			probed = true
		}
	}
	if !probed {
		t.Fatal("escape from skip was not recorded as a probe decision")
	}
}

func TestMinDwellBoundsSwitchRate(t *testing.T) {
	// Alternate violently between all-miss and all-hit every tick; the
	// dwell/sustain guards must keep switches far below the naive rate.
	mk := func(cfg Config) int64 {
		c := NewController(cfg)
		for i := 0; i < 200; i++ {
			s := Signals{SRTT: 20 * time.Millisecond, Frames: 10}
			if i%2 == 0 {
				s.Misses = 10
			}
			c.Tick(time.Duration(i)*100*time.Millisecond, s)
		}
		return c.Switches()
	}
	guarded := mk(Config{})
	naive := mk(Config{NoHysteresis: true})
	// 20s at MinDwell 500ms admits at most 40 switches; the EWMA plus
	// sustain requirement keeps the real number lower still.
	if guarded > 20 {
		t.Fatalf("guarded controller switched %d times in 20s", guarded)
	}
	if naive < 4*guarded {
		t.Fatalf("control experiment: naive (%d) should oscillate far more than guarded (%d)", naive, guarded)
	}
}

func TestDeterministicDecisionTrace(t *testing.T) {
	run := func() (uint64, []Decision) {
		c := NewController(Config{})
		for i := 0; i < 150; i++ {
			s := Signals{SRTT: time.Duration(20+i%30) * time.Millisecond, Loss: float64(i%10) / 50, Frames: 10, Misses: i % 11}
			c.Tick(time.Duration(i)*100*time.Millisecond, s)
		}
		return c.DecisionHash(), c.Decisions()
	}
	h1, d1 := run()
	h2, d2 := run()
	if h1 != h2 {
		t.Fatalf("same ticks, different hashes: %x vs %x", h1, h2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, d1[i], d2[i])
		}
	}
}

func TestPlanRepair(t *testing.T) {
	// Monotone in loss: more loss never needs fewer repair shards.
	prev := 0
	for _, loss := range []float64{0, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.5, 1} {
		m := PlanRepair(8, 8, loss, 1e-3)
		if m < prev {
			t.Fatalf("PlanRepair not monotone: loss=%v gave m=%d after m=%d", loss, m, prev)
		}
		prev = m
	}
	// The chosen m actually meets the target (when it can), and m-1 does not.
	for _, loss := range []float64{0.005, 0.02, 0.08} {
		m := PlanRepair(8, 16, loss, 1e-3)
		if got := fec.ResidualLoss(8, m, loss); got > 1e-3 {
			t.Fatalf("loss=%v m=%d residual %v > target", loss, m, got)
		}
		if m > 0 {
			if got := fec.ResidualLoss(8, m-1, loss); got <= 1e-3 {
				t.Fatalf("loss=%v: m=%d not minimal, m-1 residual %v", loss, m, got)
			}
		}
	}
	// Cap respected under hopeless loss.
	if m := PlanRepair(8, 4, 0.9, 1e-3); m != 4 {
		t.Fatalf("hopeless loss should pin at maxM, got %d", m)
	}
	if m := PlanRepair(0, 4, 0.5, 1e-3); m != 0 {
		t.Fatalf("k=0 must plan nothing, got %d", m)
	}
}

func TestPolicyEncodeRoundTrip(t *testing.T) {
	cases := []struct {
		p    Policy
		tick uint32
	}{
		{Policy{Mode: ModeFull, Retransmit: true}, 0},
		{Policy{Mode: ModeFeatures, K: 8, M: 2}, 7},
		{Policy{Mode: ModeTracking, K: 10, M: 4}, 1 << 30},
		{Policy{Mode: ModeSkip, Retransmit: true}, math.MaxUint32},
	}
	for _, tc := range cases {
		b := EncodePolicy(tc.p, tc.tick)
		if len(b) != PolicyLen {
			t.Fatalf("encoded %d bytes, want %d", len(b), PolicyLen)
		}
		got, tick, err := DecodePolicy(append(b, 0xAA, 0xBB)) // trailing payload ignored
		if err != nil {
			t.Fatalf("decode %+v: %v", tc.p, err)
		}
		if got != tc.p || tick != tc.tick {
			t.Fatalf("round trip: sent %+v/%d got %+v/%d", tc.p, tc.tick, got, tick)
		}
	}
}

func TestPolicyDecodeRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{1, 0, 1},                                // short
		{2, 0, 1, 0, 0, 0, 0, 0, 0},              // unknown version
		{1, 9, 1, 0, 0, 0, 0, 0, 0},              // mode off the ladder
		{1, 0, 0xFF, 0, 0, 0, 0, 0, 0},           // unknown flags
		{1, 0, 1, 8, 2, 0, 0, 0, 0},              // shards under ARQ
		{1, 1, 0, 0, 3, 0, 0, 0, 0},              // repair shards without data shards
		{1, 1, 0, 200, 100, 0, 0, 0, 0},          // k+m > 255
		{1, byte(ModeSkip), 0, 8, 1, 0, 0, 0, 0}, // shards in skip mode
	}
	for i, b := range bad {
		if _, _, err := DecodePolicy(b); err == nil {
			t.Fatalf("case %d: decode accepted garbage %v", i, b)
		}
	}
}
