package marsim

import (
	"testing"
	"time"

	"marnet/internal/adapt"
)

// TestAdaptCongestionBeatsFixedTiers is the headline acceptance run for
// the degradation controller (ISSUE 6): over the congestion-ramp
// scenario the adaptive policy must land strictly more frames inside
// the 75 ms budget than *every* fixed rung of the ladder, while
// shipping fewer uplink bytes than fixed-full. Two seeds, so a lucky
// draw can't carry the claim.
func TestAdaptCongestionBeatsFixedTiers(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		adaptive, err := RunAdaptCongestion(seed, PolicyAdaptive)
		if err != nil {
			t.Fatalf("seed %d adaptive: %v", seed, err)
		}
		t.Logf("seed=%-3d %-16s hits=%d/%d (%.1f%%) upBytes=%d switches=%d rms=%.1f",
			seed, adaptive.Kind, adaptive.Hits, adaptive.Frames, 100*adaptive.HitRate(),
			adaptive.UpBytes, adaptive.Switches, adaptive.RMSError)
		if adaptive.Switches == 0 {
			t.Errorf("seed %d: controller never switched across the congestion ramp", seed)
		}
		for _, k := range []AdaptPolicyKind{PolicyFixedFull, PolicyFixedFeatures, PolicyFixedTracking} {
			fixed, err := RunAdaptCongestion(seed, k)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, k, err)
			}
			t.Logf("seed=%-3d %-16s hits=%d/%d (%.1f%%) upBytes=%d",
				seed, fixed.Kind, fixed.Hits, fixed.Frames, 100*fixed.HitRate(), fixed.UpBytes)
			if fixed.Frames != adaptive.Frames {
				t.Errorf("seed %d: %s produced %d frames, adaptive %d — harness drift",
					seed, fixed.Kind, fixed.Frames, adaptive.Frames)
			}
			if fixed.Hits >= adaptive.Hits {
				t.Errorf("seed %d: fixed %s hit %d frames >= adaptive %d",
					seed, fixed.Kind, fixed.Hits, adaptive.Hits)
			}
			if k == PolicyFixedFull && adaptive.UpBytes >= fixed.UpBytes {
				t.Errorf("seed %d: adaptive shipped %d bytes >= fixed-full %d",
					seed, adaptive.UpBytes, fixed.UpBytes)
			}
		}
	}
}

// TestAdaptDeterminism: same seed, same scenario, twice — the decision
// trace, the event trace, and every counter must be identical. The
// whole stack (sim, wire, rpc retry jitter, FEC planning, controller)
// is seeded, so any divergence is a real nondeterminism bug.
func TestAdaptDeterminism(t *testing.T) {
	a, err := RunAdaptCongestion(1, PolicyAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAdaptCongestion(1, PolicyAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	if a.DecisionHash != b.DecisionHash {
		t.Errorf("decision hash diverged: %#x vs %#x", a.DecisionHash, b.DecisionHash)
	}
	if a.TraceHash != b.TraceHash {
		t.Errorf("trace hash diverged: %#x vs %#x", a.TraceHash, b.TraceHash)
	}
	if a.Hits != b.Hits || a.UpBytes != b.UpBytes || a.Switches != b.Switches {
		t.Errorf("counters diverged: hits %d/%d upBytes %d/%d switches %d/%d",
			a.Hits, b.Hits, a.UpBytes, b.UpBytes, a.Switches, b.Switches)
	}
	if len(a.Decisions) == 0 {
		t.Fatal("controller retained no decisions")
	}
}

// TestAdaptHandoverRetxSwitch exercises the §VI-C affordability rule:
// handover onto a 55 ms one-way cell link pushes RTT past Budget/2, so
// the controller must trade retransmission for FEC while on the cell
// radio, and trade back after the return handover — exactly one flip
// each way. Whenever ARQ is off, the FEC plan must actually carry
// repair shards.
func TestAdaptHandoverRetxSwitch(t *testing.T) {
	adaptive, err := RunAdaptHandover(7, PolicyAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := RunAdaptHandover(7, PolicyFixedFull)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("adaptive hits=%d/%d fixed-full hits=%d/%d flips=%d",
		adaptive.Hits, adaptive.Frames, fixed.Hits, fixed.Frames, adaptive.RetxFlips)
	if adaptive.Hits <= fixed.Hits {
		t.Errorf("adaptive hit %d frames <= fixed-full %d across handover", adaptive.Hits, fixed.Hits)
	}
	if adaptive.RetxFlips != 2 {
		t.Errorf("want exactly 2 ARQ<->FEC flips (out and back), got %d", adaptive.RetxFlips)
	}
	sawFEC := false
	for _, d := range adaptive.Decisions {
		if d.Policy.Retransmit {
			continue
		}
		sawFEC = true
		// FEC may only engage after the 8 s handover raises the RTT; the
		// flip *back* lags the 16 s return while the SRTT EWMA re-learns
		// the cheap radio from fresh samples, so no upper bound here —
		// the final-decision check below pins the recovery.
		if d.Now < 8*time.Second {
			t.Errorf("FEC active at t=%v, before the handover", d.Now)
		}
		if d.Policy.Mode != adapt.ModeSkip && (d.Policy.K == 0 || d.Policy.M == 0) {
			t.Errorf("t=%v: ARQ off but FEC plan is k=%d m=%d (no repair)",
				d.Now, d.Policy.K, d.Policy.M)
		}
	}
	if !sawFEC {
		t.Error("controller never switched to FEC on the cell radio")
	}
	if last := adaptive.Decisions[len(adaptive.Decisions)-1]; !last.Policy.Retransmit {
		t.Errorf("retransmission never resumed after the return handover (final policy %+v)", last.Policy)
	}
}

// TestAdaptGEHysteresis is the oscillation guard (satellite 4): under a
// seeded Gilbert-Elliott burst regime the full controller — min-dwell,
// miss-EWMA, upgrade-relapse backoff — must hold its mode essentially
// steady, while the same controller with hysteresis disabled thrashes.
func TestAdaptGEHysteresis(t *testing.T) {
	guarded, err := RunAdaptGEBurst(7, PolicyAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RunAdaptGEBurst(7, PolicyAdaptiveNoHyst)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("guarded switches=%d hits=%d/%d peakLoss=%.4f | naive switches=%d hits=%d/%d",
		guarded.Switches, guarded.Hits, guarded.Frames, guarded.PeakWireLoss,
		naive.Switches, naive.Hits, naive.Frames)
	if guarded.PeakWireLoss <= 0 {
		t.Error("burst filter left no mark on the wire loss estimator")
	}
	if guarded.Switches > 2 {
		t.Errorf("guarded controller switched %d times under burst loss (want <= 2)", guarded.Switches)
	}
	if naive.Switches < 4*(guarded.Switches+1) {
		t.Errorf("no-hysteresis control switched only %d times vs guarded %d — scenario lost its teeth",
			naive.Switches, guarded.Switches)
	}
	if naive.Hits-guarded.Hits > 10 {
		t.Errorf("hysteresis cost real hits: guarded %d vs naive %d", guarded.Hits, naive.Hits)
	}
}
