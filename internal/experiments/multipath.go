package experiments

import (
	"fmt"
	"strings"
	"time"

	"marnet/internal/marsim"
)

// MultipathRow is one attachment mode's outcome on the burst+blackhole
// scenario.
type MultipathRow struct {
	Mode           string  `json:"mode"`
	Calls          int64   `json:"calls"`
	OKs            int64   `json:"oks"`
	OKRate         float64 `json:"ok_rate"`
	Reconnects     int64   `json:"reconnects"`
	CutoverMs      float64 `json:"cutover_ms"`
	MaxOKGapMs     float64 `json:"max_ok_gap_ms"`
	FailoverFrames int64   `json:"failover_frames"`
	Repaired       int64   `json:"fec_repaired"`
	Unrepaired     int64   `json:"fec_unrepaired"`
	RepairRate     float64 `json:"fec_repair_rate"`
}

// MultipathBenchResult is the multipath robustness study: the legacy
// single-path client, probing failover, and full multipath-with-FEC run
// the identical burst-loss + blackhole script head-to-head, plus the
// path-flap endurance variant and a same-seed determinism re-run.
// Marshalled as-is into BENCH_multipath.json by `make bench`.
type MultipathBenchResult struct {
	Seed int64          `json:"seed"`
	Rows []MultipathRow `json:"rows"`

	// Acceptance flags the CI bench gate checks.
	ZeroResets             bool    `json:"zero_resets"`              // both multipath modes survive the blackhole without a session reset
	CutoverWithinKeepalive bool    `json:"cutover_within_keepalive"` // wifi declared dead within one keepalive interval
	RepairRate             float64 `json:"repair_rate"`              // full mode, both directions
	RepairsWithoutRetx     bool    `json:"repairs_without_retx"`     // >= 90% of burst holes repaired from cross-path parity
	FullBeatsSingle        bool    `json:"full_beats_single"`        // strictly more completed calls and a shorter outage
	FlapZeroResets         bool    `json:"flap_zero_resets"`         // three blackhole pulses, still no reset
	Deterministic          bool    `json:"deterministic"`            // same seed reproduces the trace bit-for-bit

	TraceHash uint64 `json:"trace_hash"`
	Err       string `json:"err,omitempty"`
}

// Pass reports whether the flags `make bench` is held to all hold.
func (r MultipathBenchResult) Pass() bool {
	return r.Err == "" && r.ZeroResets && r.CutoverWithinKeepalive && r.RepairsWithoutRetx && r.Deterministic
}

func multipathRow(r *marsim.MultipathResult) MultipathRow {
	repaired := r.RepairedUp + r.RepairedDown
	unrepaired := r.UnrepairedUp + r.UnrepairedDown
	return MultipathRow{
		Mode: r.Mode, Calls: r.Calls, OKs: r.OKs, OKRate: r.OKRate(),
		Reconnects:     r.Reconnects,
		CutoverMs:      float64(r.CutoverGap) / float64(time.Millisecond),
		MaxOKGapMs:     float64(r.MaxOKGap) / float64(time.Millisecond),
		FailoverFrames: r.FailoverFrames,
		Repaired:       repaired, Unrepaired: unrepaired,
		RepairRate: r.RepairRate,
	}
}

// Multipath runs the multipath robustness study. Everything runs in the
// deterministic simulator, so the result depends only on the seed.
func Multipath(seed int64) MultipathBenchResult {
	res := MultipathBenchResult{Seed: seed}

	results := map[marsim.MultipathMode]*marsim.MultipathResult{}
	for _, mode := range []marsim.MultipathMode{marsim.MPSingle, marsim.MPFailover, marsim.MPFull} {
		r, err := marsim.RunMultipath(seed, mode)
		if err != nil {
			res.Err = fmt.Sprintf("blackhole/%s: %v", mode, err)
			return res
		}
		results[mode] = r
		res.Rows = append(res.Rows, multipathRow(r))
	}
	single, failover, full := results[marsim.MPSingle], results[marsim.MPFailover], results[marsim.MPFull]

	res.ZeroResets = failover.Reconnects == 0 && full.Reconnects == 0
	res.CutoverWithinKeepalive = full.CutoverGap > 0 && full.CutoverGap <= 250*time.Millisecond &&
		failover.CutoverGap > 0 && failover.CutoverGap <= 250*time.Millisecond
	res.RepairRate = full.RepairRate
	res.RepairsWithoutRetx = full.RepairedUp+full.RepairedDown >= 5 && full.RepairRate >= 0.9
	res.FullBeatsSingle = full.OKs > single.OKs && full.MaxOKGap < single.MaxOKGap
	res.TraceHash = full.TraceHash

	flap, err := marsim.RunMultipathFlap(seed, marsim.MPFull)
	if err != nil {
		res.Err = fmt.Sprintf("flap: %v", err)
		return res
	}
	res.FlapZeroResets = flap.Reconnects == 0 && flap.Fails == 0

	rerun, err := marsim.RunMultipath(seed, marsim.MPFull)
	if err != nil {
		res.Err = fmt.Sprintf("blackhole rerun: %v", err)
		return res
	}
	res.Deterministic = rerun.TraceHash == full.TraceHash
	return res
}

// Format renders the study in the repo's table style.
func (r MultipathBenchResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multipath robustness, burst window + mid-stream blackhole (6.5 s, 20 FPS, seed=%d)\n", r.Seed)
	if r.Err != "" {
		fmt.Fprintf(&b, "  study failed: %s\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  %-14s %10s %7s %7s %9s %9s %9s %8s\n",
		"mode", "oks", "ok%", "resets", "cutover", "outage", "failover", "repair%")
	for _, row := range r.Rows {
		repair := "-"
		if row.Repaired+row.Unrepaired > 0 {
			repair = fmt.Sprintf("%.1f%%", 100*row.RepairRate)
		}
		cut := "-"
		if row.CutoverMs > 0 {
			cut = fmt.Sprintf("%.0fms", row.CutoverMs)
		}
		fmt.Fprintf(&b, "  %-14s %4d/%-5d %6.1f%% %7d %9s %8.0fms %9d %8s\n",
			row.Mode, row.OKs, row.Calls, 100*row.OKRate, row.Reconnects,
			cut, row.MaxOKGapMs, row.FailoverFrames, repair)
	}
	fmt.Fprintf(&b, "  zero resets: %v   cutover within keepalive: %v   FEC repairs without retx: %v (rate %.3f)\n",
		r.ZeroResets, r.CutoverWithinKeepalive, r.RepairsWithoutRetx, r.RepairRate)
	fmt.Fprintf(&b, "  full beats single-path: %v   flap endurance clean: %v   deterministic: %v (hash %#x)\n",
		r.FullBeatsSingle, r.FlapZeroResets, r.Deterministic, r.TraceHash)
	return b.String()
}
