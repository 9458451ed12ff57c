package experiments

import (
	"fmt"
	"strings"

	"marnet/internal/marsim"
)

// AdaptRow is one policy's outcome on the congestion-ramp scenario.
type AdaptRow struct {
	Policy    string  `json:"policy"`
	Hits      int64   `json:"hits"`
	Frames    int64   `json:"frames"`
	HitRate   float64 `json:"hit_rate"`
	UpBytes   int64   `json:"up_bytes"`
	RMSError  float64 `json:"rms_error_px"`
	Switches  int64   `json:"mode_switches"`
	FinalMode string  `json:"final_mode"`
}

// AdaptBenchResult is the closed-loop degradation study: the adaptive
// controller against every fixed rung of the ladder on the congestion
// ramp, plus the handover retransmit-affordability flip count and the
// Gilbert-Elliott oscillation comparison. Marshalled as-is into
// BENCH_adapt.json by `make bench`.
type AdaptBenchResult struct {
	Seed int64      `json:"seed"`
	Rows []AdaptRow `json:"rows"`

	// The acceptance flags the CI bench gate checks.
	AdaptiveBeatsAllTiers bool `json:"adaptive_beats_all_tiers"` // strictly more budget hits than every fixed rung
	FewerBytesThanFull    bool `json:"fewer_bytes_than_full"`    // while shipping less than fixed-full
	Deterministic         bool `json:"deterministic"`            // same seed reproduces the decision trace bit-for-bit

	DecisionHash uint64 `json:"decision_hash"`

	// Handover: ARQ<->FEC transitions across the 8 s out / 16 s back
	// radio swap (the paper's Budget/2 affordability rule wants exactly 2).
	HandoverRetxFlips    int64 `json:"handover_retx_flips"`
	HandoverHitsAdaptive int64 `json:"handover_hits_adaptive"`
	HandoverHitsFull     int64 `json:"handover_hits_fixed_full"`

	// Burst loss: mode switches with hysteresis on vs off under the same
	// seeded Gilbert-Elliott regime.
	GESwitchesGuarded int64   `json:"ge_switches_guarded"`
	GESwitchesNaive   int64   `json:"ge_switches_naive"`
	GEPeakWireLoss    float64 `json:"ge_peak_wire_loss"`

	Err string `json:"err,omitempty"`
}

// Pass reports whether the acceptance flags all hold.
func (r AdaptBenchResult) Pass() bool {
	return r.Err == "" && r.AdaptiveBeatsAllTiers && r.FewerBytesThanFull && r.Deterministic
}

func adaptRow(r *marsim.AdaptResult) AdaptRow {
	return AdaptRow{
		Policy: r.Kind, Hits: r.Hits, Frames: r.Frames, HitRate: r.HitRate(),
		UpBytes: r.UpBytes, RMSError: r.RMSError, Switches: r.Switches,
		FinalMode: r.FinalMode,
	}
}

// Adapt runs the adaptive-degradation study: the congestion ramp for the
// controller and each fixed rung head-to-head, a same-seed re-run to
// certify determinism, and the handover and burst-loss scenarios for the
// affordability-switch and hysteresis claims. Everything runs in the
// deterministic simulator, so the result depends only on the seed.
func Adapt(seed int64) AdaptBenchResult {
	res := AdaptBenchResult{Seed: seed}

	var adaptive, full *marsim.AdaptResult
	for _, k := range []marsim.AdaptPolicyKind{
		marsim.PolicyAdaptive, marsim.PolicyFixedFull,
		marsim.PolicyFixedFeatures, marsim.PolicyFixedTracking,
	} {
		r, err := marsim.RunAdaptCongestion(seed, k)
		if err != nil {
			res.Err = fmt.Sprintf("congestion/%s: %v", k, err)
			return res
		}
		res.Rows = append(res.Rows, adaptRow(r))
		switch k {
		case marsim.PolicyAdaptive:
			adaptive = r
		case marsim.PolicyFixedFull:
			full = r
		}
	}
	res.DecisionHash = adaptive.DecisionHash
	res.AdaptiveBeatsAllTiers = true
	for _, row := range res.Rows {
		if row.Policy != adaptive.Kind && row.Hits >= adaptive.Hits {
			res.AdaptiveBeatsAllTiers = false
		}
	}
	res.FewerBytesThanFull = adaptive.UpBytes < full.UpBytes

	rerun, err := marsim.RunAdaptCongestion(seed, marsim.PolicyAdaptive)
	if err != nil {
		res.Err = fmt.Sprintf("congestion rerun: %v", err)
		return res
	}
	res.Deterministic = rerun.DecisionHash == adaptive.DecisionHash &&
		rerun.TraceHash == adaptive.TraceHash

	ho, err := marsim.RunAdaptHandover(seed, marsim.PolicyAdaptive)
	if err != nil {
		res.Err = fmt.Sprintf("handover: %v", err)
		return res
	}
	hoFull, err := marsim.RunAdaptHandover(seed, marsim.PolicyFixedFull)
	if err != nil {
		res.Err = fmt.Sprintf("handover/full: %v", err)
		return res
	}
	res.HandoverRetxFlips = ho.RetxFlips
	res.HandoverHitsAdaptive = ho.Hits
	res.HandoverHitsFull = hoFull.Hits

	ge, err := marsim.RunAdaptGEBurst(seed, marsim.PolicyAdaptive)
	if err != nil {
		res.Err = fmt.Sprintf("ge: %v", err)
		return res
	}
	geNaive, err := marsim.RunAdaptGEBurst(seed, marsim.PolicyAdaptiveNoHyst)
	if err != nil {
		res.Err = fmt.Sprintf("ge/nohyst: %v", err)
		return res
	}
	res.GESwitchesGuarded = ge.Switches
	res.GESwitchesNaive = geNaive.Switches
	res.GEPeakWireLoss = ge.PeakWireLoss
	return res
}

// Format renders the study in the repo's table style.
func (r AdaptBenchResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive degradation, congestion ramp (26 s, 20 FPS, 75 ms budget, seed=%d)\n", r.Seed)
	if r.Err != "" {
		fmt.Fprintf(&b, "  study failed: %s\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  %-16s %10s %8s %10s %10s %9s %10s\n",
		"policy", "hits", "hit%", "up-bytes", "rms(px)", "switches", "final")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-16s %5d/%-4d %7.1f%% %10d %10.1f %9d %10s\n",
			row.Policy, row.Hits, row.Frames, 100*row.HitRate,
			row.UpBytes, row.RMSError, row.Switches, row.FinalMode)
	}
	fmt.Fprintf(&b, "  adaptive beats all fixed tiers: %v   fewer bytes than fixed-full: %v   deterministic: %v (hash %#x)\n",
		r.AdaptiveBeatsAllTiers, r.FewerBytesThanFull, r.Deterministic, r.DecisionHash)
	fmt.Fprintf(&b, "  handover: ARQ<->FEC flips=%d, hits adaptive=%d vs fixed-full=%d\n",
		r.HandoverRetxFlips, r.HandoverHitsAdaptive, r.HandoverHitsFull)
	fmt.Fprintf(&b, "  burst loss (GE, peak wire loss %.3f): switches guarded=%d vs no-hysteresis=%d\n",
		r.GEPeakWireLoss, r.GESwitchesGuarded, r.GESwitchesNaive)
	return b.String()
}
