package experiments

import (
	"strings"
	"testing"
	"time"
)

// Every experiment's Format output must be non-empty and multi-line; the
// shape assertions below check the paper's qualitative claims.

func TestTableI(t *testing.T) {
	r := TableI()
	if len(r.Devices) != 6 {
		t.Fatalf("rows = %d", len(r.Devices))
	}
	out := r.Format()
	for _, want := range []string{"Smart glasses", "Cloud computing", "Portability"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTableIIOrderingAndMagnitudes(t *testing.T) {
	r := TableII(1)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Monotone ordering: local < cloud/WiFi < university < cloud/LTE.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].LinkRTT <= r.Rows[i-1].LinkRTT {
			t.Errorf("row %d RTT %v not greater than row %d RTT %v",
				i, r.Rows[i].LinkRTT, i-1, r.Rows[i-1].LinkRTT)
		}
	}
	// Each measured value within 40% of the paper's.
	for _, row := range r.Rows {
		ratio := float64(row.LinkRTT) / float64(row.PaperRTT)
		if ratio < 0.6 || ratio > 1.4 {
			t.Errorf("%s/%s: measured %v vs paper %v (ratio %.2f)",
				row.Platform, row.Connection, row.LinkRTT, row.PaperRTT, ratio)
		}
	}
	// The university paradox: nearly double the cloud-WiFi RTT.
	if f := float64(r.Rows[2].LinkRTT) / float64(r.Rows[1].LinkRTT); f < 1.6 || f > 2.4 {
		t.Errorf("university/cloud ratio = %.2f, want ~2", f)
	}
	if !strings.Contains(r.Format(), "University") {
		t.Error("format missing university row")
	}
}

func TestFigure2Anomaly(t *testing.T) {
	r := Figure2(3)
	// Symmetric case fair within 10%.
	if ratio := r.BothFastA / r.BothFastB; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("54/54 unfair: %v vs %v", r.BothFastA, r.BothFastB)
	}
	// Anomaly: A collapses to ~B and loses over a third of its goodput
	// (the analytic drop for a 54/18 Mb/s pair is ~37%).
	if ratio := r.MixedA / r.MixedB; ratio < 0.85 || ratio > 1.15 {
		t.Errorf("mixed not equalized: %v vs %v", r.MixedA, r.MixedB)
	}
	if r.MixedA > 0.7*r.BothFastA {
		t.Errorf("anomaly too weak: %v vs %v", r.MixedA, r.BothFastA)
	}
	// Simulation matches the analytic model within 10%.
	if ratio := r.MixedA / r.AnalyticMixed; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("sim %v vs analytic %v", r.MixedA, r.AnalyticMixed)
	}
	if !strings.Contains(r.Format(), "performance anomaly") {
		t.Error("format header missing")
	}
}

func TestFigure3UploadsStarveDownload(t *testing.T) {
	r := Figure3(5)
	// Alone: near link capacity (payload share of 8 Mb/s).
	if r.Alone < 6e6 {
		t.Errorf("download alone = %v, want near 7.5e6", r.Alone)
	}
	// One upload collapses the download hard (paper/Heusse: far below fair
	// share).
	if r.With1 > r.Alone/2 {
		t.Errorf("one upload did not halve the download: %v vs %v", r.With1, r.Alone)
	}
	// Two uploads at least as bad.
	if r.With2 > r.With1*1.5 {
		t.Errorf("two uploads should not improve things: %v vs %v", r.With2, r.With1)
	}
	if r.DownloadGoodput.Len() < 50 {
		t.Errorf("series too short: %d", r.DownloadGoodput.Len())
	}
	if !strings.Contains(r.Format(), "collapse factor") {
		t.Error("format missing collapse factor")
	}
}

func TestFigure4GracefulDegradation(t *testing.T) {
	r := Figure4(7)
	// Phase 1 (plenty of capacity): everything flows.
	for _, name := range []string{"metadata", "sensors", "ref-frames", "inter-frames"} {
		if r.Phase(name, 0) == 0 {
			t.Errorf("%s silent in phase 1", name)
		}
	}
	// Phase 2 (squeezed to 1.6 Mb/s): interframes absorb the cut; metadata
	// and reference frames keep flowing.
	if r.Phase("inter-frames", 1) > 0.7*r.Phase("inter-frames", 0) {
		t.Errorf("interframes not degraded in phase 2: %v vs %v",
			r.Phase("inter-frames", 1), r.Phase("inter-frames", 0))
	}
	if r.Phase("metadata", 1) < 0.8*r.Phase("metadata", 0) {
		t.Errorf("metadata degraded in phase 2: %v vs %v",
			r.Phase("metadata", 1), r.Phase("metadata", 0))
	}
	if r.Phase("ref-frames", 1) < 0.7*r.Phase("ref-frames", 0) {
		t.Errorf("ref frames degraded too much in phase 2: %v vs %v",
			r.Phase("ref-frames", 1), r.Phase("ref-frames", 0))
	}
	// Phase 3 (0.45 Mb/s): even reference frames degrade, metadata survives.
	if r.Phase("ref-frames", 2) > 0.7*r.Phase("ref-frames", 0) {
		t.Errorf("ref frames not degraded in phase 3: %v vs %v",
			r.Phase("ref-frames", 2), r.Phase("ref-frames", 0))
	}
	if r.Phase("metadata", 2) < 0.8*r.Phase("metadata", 0) {
		t.Errorf("metadata degraded in phase 3: %v vs %v",
			r.Phase("metadata", 2), r.Phase("metadata", 0))
	}
	// Metadata essentially lossless end to end.
	if float64(r.MetaDelivered) < 0.98*float64(r.MetaGenerated) {
		t.Errorf("metadata delivery %d/%d", r.MetaDelivered, r.MetaGenerated)
	}
	// The TCP comparison flow shows a sawtooth (both rises and falls).
	ups, downs := 0, 0
	for i := 1; i < r.TCPCwnd.Len(); i++ {
		if r.TCPCwnd.Values[i] > r.TCPCwnd.Values[i-1] {
			ups++
		} else if r.TCPCwnd.Values[i] < r.TCPCwnd.Values[i-1] {
			downs++
		}
	}
	if ups == 0 || downs == 0 {
		t.Error("TCP cwnd is not a sawtooth")
	}
	if !strings.Contains(r.Format(), "graceful degradation") {
		t.Error("format header missing")
	}
}

func TestFigure5DistributedBeatsCloud(t *testing.T) {
	r := Figure5(11)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]Figure5Row{}
	for _, row := range r.Rows {
		byName[row.Scenario] = row
	}
	cloud := byName["cloud only (WiFi)"]
	edge := byName["5a multi-server multipath"]
	d2dWiFi := byName["5b D2D home WiFi"]
	// Edge server beats cloud on latency.
	if edge.MeanLat >= cloud.MeanLat {
		t.Errorf("edge %v not faster than cloud %v", edge.MeanLat, cloud.MeanLat)
	}
	// All scenarios should make the 75 ms budget most of the time; the
	// glasses alone cannot (that is the premise), so hit rates near 1 here
	// demonstrate offloading works.
	for name, row := range byName {
		if row.HitRate < 0.9 {
			t.Errorf("%s hit rate %.2f < 0.9 (mean %v)", name, row.HitRate, row.MeanLat)
		}
	}
	_ = d2dWiFi
	if !strings.Contains(r.Format(), "5c D2D LTE-Direct") {
		t.Error("format missing scenario")
	}
}

func TestSectionIIIB(t *testing.T) {
	r := SectionIIIB()
	if r.RetinaLow != 6e6 || r.RetinaHigh != 10e6 {
		t.Error("retina bounds wrong")
	}
	if r.Raw4K60MiBps < 700 || r.Raw4K60MiBps > 720 {
		t.Errorf("4K MiB/s = %v, want ~711", r.Raw4K60MiBps)
	}
	if r.RecoveryRTT != 37500*time.Microsecond {
		t.Errorf("recovery RTT = %v", r.RecoveryRTT)
	}
	if !strings.Contains(r.Format(), "711") {
		t.Error("format missing the 711 reference")
	}
}

func TestSectionIVA(t *testing.T) {
	r := SectionIVA(13)
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]SectionIVARow{}
	for _, row := range r.Rows {
		byName[row.Profile.Name] = row
	}
	// Measured RTTs reflect the paper's ordering: HSPA+ worst among WAN
	// technologies, local AP a few ms.
	if byName["HSPA+"].MeasuredRTT <= byName["LTE"].MeasuredRTT {
		t.Error("HSPA+ should have higher RTT than LTE")
	}
	if byName["WiFi (local AP)"].MeasuredRTT > 15*time.Millisecond {
		t.Errorf("local AP RTT = %v", byName["WiFi (local AP)"].MeasuredRTT)
	}
	if !strings.Contains(r.Format(), "802.11ac") {
		t.Error("format missing 802.11ac")
	}
}

func TestSectionVICShape(t *testing.T) {
	r := SectionVIC(17)
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// FEC repairs losses at every RTT: complete delivery strictly beats
		// plain, approaching the analytic residual.
		if row.FECComplete <= row.PlainComplete {
			t.Errorf("RTT %v: FEC complete %.3f not better than plain %.3f",
				row.RTT, row.FECComplete, row.PlainComplete)
		}
		if row.FECComplete < 0.99 {
			t.Errorf("RTT %v: FEC complete %.3f below residual expectation", row.RTT, row.FECComplete)
		}
		// Once the one-way delay exceeds the budget nothing can be in time.
		if row.RTT >= 2*r.Budget && row.FECInTime > 0.05 {
			t.Errorf("RTT %v: in-time %.3f should be ~0 beyond the physics bound", row.RTT, row.FECInTime)
		}
		switch {
		case row.ARQAffordable:
			// Affordable ARQ should recover nearly everything (the residual
			// tail is re-lost retransmissions and end-of-frame losses whose
			// gap signal arrives one frame later).
			if row.ARQInTime < 0.97 {
				t.Errorf("RTT %v: affordable ARQ in-time %.3f", row.RTT, row.ARQInTime)
			}
		case row.RTT > 2*r.Budget:
			// Far beyond budget ARQ degenerates toward plain.
			if row.ARQInTime > row.FECInTime {
				t.Errorf("RTT %v: ARQ %.3f should not beat FEC %.3f", row.RTT, row.ARQInTime, row.FECInTime)
			}
		}
	}
	// The paper's boundary: ARQ affordable at 37 ms but not at 50 ms.
	if !r.Rows[2].ARQAffordable || r.Rows[3].ARQAffordable {
		t.Error("affordability boundary wrong")
	}
	if !strings.Contains(r.Format(), "FEC<=T") {
		t.Error("format missing FEC column")
	}
}

func TestSectionVIDShape(t *testing.T) {
	r := SectionVID(19)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	failover, both := r.Rows[0], r.Rows[2]
	// Simultaneous use should deliver at least as well as failover-only and
	// spend more LTE bytes.
	if both.Delivered < failover.Delivered-0.02 {
		t.Errorf("simultaneous delivered %.3f < failover %.3f", both.Delivered, failover.Delivered)
	}
	if both.LTEBytes <= failover.LTEBytes {
		t.Errorf("simultaneous LTE bytes %d should exceed failover %d", both.LTEBytes, failover.LTEBytes)
	}
	// Everything keeps working through outages.
	for _, row := range r.Rows {
		if row.Delivered < 0.85 {
			t.Errorf("%s delivered only %.3f", row.Behavior, row.Delivered)
		}
	}
	if !strings.Contains(r.Format(), "LTE MB") {
		t.Error("format missing LTE column")
	}
}

func TestSectionVIFShape(t *testing.T) {
	r := SectionVIF(23)
	if len(r.Rows) < 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ExactC >= 0 {
			if row.GreedyC < row.ExactC {
				t.Errorf("greedy %d below exact optimum %d", row.GreedyC, row.ExactC)
			}
			if float64(row.GreedyC) > 1.5*float64(row.ExactC)+1 {
				t.Errorf("greedy %d too far from optimum %d", row.GreedyC, row.ExactC)
			}
		}
		if row.RandomC < float64(row.GreedyC)-0.5 {
			t.Errorf("random %.1f better than greedy %d — suspicious", row.RandomC, row.GreedyC)
		}
	}
	if !strings.Contains(r.Format(), "greedy") {
		t.Error("format missing greedy column")
	}
}

func TestSectionVIHShape(t *testing.T) {
	r := SectionVIH(29)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	droptail, fqcodel, prio := r.Rows[0], r.Rows[1], r.Rows[2]
	// FQ-CoDel and priority queueing must slash the MAR p99 vs the
	// oversized FIFO.
	if fqcodel.MARp99 > droptail.MARp99/2 {
		t.Errorf("FQ-CoDel p99 %v vs DropTail %v — expected large win", fqcodel.MARp99, droptail.MARp99)
	}
	if prio.MARp99 > droptail.MARp99/2 {
		t.Errorf("priority p99 %v vs DropTail %v — expected large win", prio.MARp99, droptail.MARp99)
	}
	// Bulk traffic still gets most of the link under AQM.
	if fqcodel.BulkMbps < 0.8 {
		t.Errorf("FQ-CoDel bulk rate %v too low", fqcodel.BulkMbps)
	}
	if !strings.Contains(r.Format(), "FQ-CoDel") {
		t.Error("format missing FQ-CoDel row")
	}
}

// Same seed, same figure: nothing an ARTP session or an rpc call over it
// does — loss declarations, timers, same-instant events — may depend on
// map order or the wall clock. Five runs of every study a session drives,
// rendered as marbench prints them, must be one text.
func TestFiguresRepeatPerSeed(t *testing.T) {
	for _, fig := range []struct {
		name   string
		render func() string
	}{
		{"TableII", func() string { return TableII(42).Format() }},
		{"Figure4", func() string { return Figure4(42).Format() }},
		{"Figure5", func() string { return Figure5(42).Format() }},
		{"SectionIVA", func() string { return SectionIVA(42).Format() }},
		{"SectionIVC", func() string { return SectionIVC(42).Format() }},
		{"SectionIVD", func() string { return SectionIVD(42).Format() }},
		{"SectionVIC", func() string { return SectionVIC(42).Format() }},
		{"SectionVID", func() string { return SectionVID(42).Format() }},
		{"SectionVIH", func() string { return SectionVIH(42).Format() }},
	} {
		first := fig.render()
		for run := 2; run <= 5; run++ {
			if got := fig.render(); got != first {
				t.Errorf("%s: run %d of seed 42 (marbench's default) differs from run 1:\n%s\n--- run 1 ---\n%s", fig.name, run, got, first)
				break
			}
		}
	}
}
