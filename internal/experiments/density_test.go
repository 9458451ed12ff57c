package experiments

import (
	"strings"
	"testing"
)

func TestSectionIVCShape(t *testing.T) {
	r := SectionIVC(37)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The paper's fairness property: independent ARTP controllers share
		// the cell almost perfectly evenly.
		if row.JainIndex < 0.99 {
			t.Errorf("%d users: Jain = %.3f, want ~1", row.Users, row.JainIndex)
		}
		// Nobody is starved.
		if row.PerUserMin < 0.5*row.PerUserMean {
			t.Errorf("%d users: min %.0f far below mean %.0f", row.Users, row.PerUserMin, row.PerUserMean)
		}
	}
	// Uncontended cells satisfy everyone. A cell is uncontended when what
	// its users offer on the wire fits: every 1200 B payload also carries a
	// 26 B ARTP header and 28 B of IP/UDP.
	uncontended := 0
	for _, row := range r.Rows {
		if float64(row.Users)*r.DemandBps*1254/1200 > r.CellBps {
			continue
		}
		uncontended++
		if row.SatisfiedPct < 1 {
			t.Errorf("%d users (uncontended): satisfied %.0f%%", row.Users, row.SatisfiedPct*100)
		}
	}
	if uncontended == 0 {
		t.Error("no uncontended row")
	}
	// Saturated cells still achieve a solid share of fair capacity: the
	// delay-based controller deliberately trades some utilization for an
	// empty queue, but must stay above 60% of fair share.
	fair := r.CellBps / float64(r.Rows[2].Users)
	if r.Rows[2].PerUserMean < 0.6*fair {
		t.Errorf("10 users: mean %.0f below 60%% of fair %.0f", r.Rows[2].PerUserMean, fair)
	}
	// Per-user throughput decreases with load.
	if r.Rows[3].PerUserMean >= r.Rows[2].PerUserMean {
		t.Error("per-user rate should fall as the cell loads")
	}
	if !strings.Contains(r.Format(), "Jain") {
		t.Error("format missing Jain column")
	}
}
