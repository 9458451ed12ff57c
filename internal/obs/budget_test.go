package obs

import (
	"strings"
	"testing"
	"time"
)

func report(total time.Duration) BudgetReport {
	return BudgetReport{
		Trace:     1,
		Budget:    DefaultBudget,
		Total:     total,
		Queue:     total / 6,
		Compute:   total / 6,
		NetUp:     total / 6,
		NetDown:   total / 6,
		Serialize: total / 6,
		Overhead:  total - 5*(total/6),
		Attempts:  1,
	}
}

func TestBudgetReportInvariants(t *testing.T) {
	r := report(60 * time.Millisecond)
	if r.Sum() != r.Total {
		t.Fatalf("stage sum %v != total %v", r.Sum(), r.Total)
	}
	if r.Blown() {
		t.Fatal("60ms under a 75ms budget is not blown")
	}
	r = report(90 * time.Millisecond)
	if !r.Blown() {
		t.Fatal("90ms over a 75ms budget is blown")
	}
	r.Compute = 40 * time.Millisecond
	if dom := r.Dominant(); dom.Name != StageCompute {
		t.Fatalf("dominant = %q, want %q", dom.Name, StageCompute)
	}
	if s := r.String(); !strings.Contains(s, "BLOWN") || !strings.Contains(s, StageQueue) {
		t.Fatalf("String() = %q", s)
	}
	if (BudgetReport{}).Blown() {
		t.Fatal("zero budget means unbounded")
	}
}

func TestBudgetTracker(t *testing.T) {
	reg := NewRegistry()
	bt := NewBudgetTracker(75*time.Millisecond, reg, L("client", "a"))
	bt.Observe(report(50 * time.Millisecond))
	bt.Observe(report(100 * time.Millisecond))
	over := report(100 * time.Millisecond)
	over.Queue = 90 * time.Millisecond
	bt.Observe(over)

	if bt.Frames() != 3 || bt.Blown() != 2 {
		t.Fatalf("frames=%d blown=%d, want 3/2", bt.Frames(), bt.Blown())
	}
	by := bt.BlownByStage()
	if by[StageQueue] != 1 || by[StageOverhead] != 1 {
		t.Fatalf("blown by stage = %v", by)
	}
	if got := len(bt.Reports()); got != 3 {
		t.Fatalf("reports retained = %d, want 3", got)
	}
	// The registry sees the same numbers.
	if p, ok := lookup(reg, "mar_budget_blown_total", L("client", "a")); !ok || p.Value != 2 {
		t.Fatalf("registry blown = %+v ok=%v, want 2", p, ok)
	}
	if p, ok := lookup(reg, "mar_budget_stage_ns", L("client", "a"), L("stage", StageQueue)); !ok || p.Hist == nil || p.Hist.Count != 3 {
		t.Fatalf("stage histogram = %+v ok=%v", p, ok)
	}

	// Nil tracker: all no-ops.
	var nilBT *BudgetTracker
	nilBT.Observe(report(time.Millisecond))
	if nilBT.Frames() != 0 || nilBT.Reports() != nil {
		t.Fatal("nil tracker must be inert")
	}
}

func TestBudgetTrackerRing(t *testing.T) {
	bt := NewBudgetTracker(time.Second, nil)
	for i := 0; i < DefaultReportCapacity+10; i++ {
		r := report(time.Duration(i+1) * time.Microsecond)
		bt.Observe(r)
	}
	reps := bt.Reports()
	if len(reps) != DefaultReportCapacity {
		t.Fatalf("ring holds %d, want %d", len(reps), DefaultReportCapacity)
	}
	if reps[0].Total != 11*time.Microsecond {
		t.Fatalf("oldest retained = %v, want 11µs", reps[0].Total)
	}
	if last := reps[len(reps)-1].Total; last != time.Duration(DefaultReportCapacity+10)*time.Microsecond {
		t.Fatalf("newest retained = %v", last)
	}
}
