package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// The paper's motion-to-photon budgets (Section III-B, Table II): an AR
// frame is useful only if capture -> uplink -> server queue/compute ->
// downlink -> display fits DefaultBudget; AbrashBudget is the "Abrash
// bound" the paper cites as the perceptual ideal.
const (
	DefaultBudget = 75 * time.Millisecond
	AbrashBudget  = 20 * time.Millisecond
)

// Budget stage names. Every stage of a BudgetReport is one of these; the
// per-stage blown counters use them as the "stage" label.
const (
	StageQueue     = "queue"     // server admission-queue wait
	StageCompute   = "compute"   // server handler service time
	StageNetUp     = "net_up"    // client->server propagation (SRTT/2)
	StageNetDown   = "net_down"  // server->client propagation (SRTT/2)
	StageSerialize = "serialize" // serialization, pacing and scheduling slack
	StageOverhead  = "overhead"  // retry backoff + losing attempts + hedge head start
)

// stageOrder fixes iteration/printing order.
var stageOrder = [...]string{StageQueue, StageCompute, StageNetUp, StageNetDown, StageSerialize, StageOverhead}

// StageIndex maps a budget stage name to its canonical ordinal (the
// compact encoding flight-recorder events use); unknown names map to
// len(stageOrder).
func StageIndex(name string) int {
	for i, s := range stageOrder {
		if s == name {
			return i
		}
	}
	return len(stageOrder)
}

// BudgetReport attributes one frame's end-to-end latency to the pipeline
// stages of the 75 ms budget. By construction the stages sum exactly to
// Total: Queue and Compute are measured by the server (monotonic
// durations, no clock sync needed), Overhead is the client-measured time
// outside the winning attempt, NetUp/NetDown split the smoothed RTT, and
// Serialize absorbs the remainder of the winning attempt (serialization,
// pacing, scheduling).
type BudgetReport struct {
	Trace  TraceID
	Budget time.Duration // 0 = unbounded (Blown always false)
	Total  time.Duration // end-to-end call latency

	Queue     time.Duration
	Compute   time.Duration
	NetUp     time.Duration
	NetDown   time.Duration
	Serialize time.Duration
	Overhead  time.Duration

	Attempts int  // wire attempts launched (1 = clean)
	Hedged   bool // the winning response came from a hedge
}

// Stages lists the attribution in canonical order.
func (r BudgetReport) Stages() []Stage {
	return []Stage{
		{StageQueue, r.Queue},
		{StageCompute, r.Compute},
		{StageNetUp, r.NetUp},
		{StageNetDown, r.NetDown},
		{StageSerialize, r.Serialize},
		{StageOverhead, r.Overhead},
	}
}

// Sum adds the stage latencies (equal to Total by construction; the
// acceptance tests verify this against the independently measured RTT).
func (r BudgetReport) Sum() time.Duration {
	return r.Queue + r.Compute + r.NetUp + r.NetDown + r.Serialize + r.Overhead
}

// Blown reports whether the frame exceeded its budget.
func (r BudgetReport) Blown() bool { return r.Budget > 0 && r.Total > r.Budget }

// Dominant returns the stage that consumed the most of the frame's time —
// where the budget went.
func (r BudgetReport) Dominant() Stage {
	var dom Stage
	for _, s := range r.Stages() {
		if s.Dur > dom.Dur {
			dom = s
		}
	}
	if dom.Name == "" {
		dom.Name = StageSerialize
	}
	return dom
}

// String renders a one-line breakdown.
func (r BudgetReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "frame %016x total=%v/%v", uint64(r.Trace), r.Total.Round(time.Microsecond), r.Budget)
	for _, s := range r.Stages() {
		fmt.Fprintf(&b, " %s=%v", s.Name, s.Dur.Round(time.Microsecond))
	}
	if r.Blown() {
		b.WriteString(" BLOWN")
	}
	return b.String()
}

// BudgetTracker aggregates BudgetReports: per-stage latency histograms,
// total-latency histogram, and blown-frame counters attributed to the
// dominant stage — all registered in the given registry — plus a bounded
// ring of recent raw reports for inspection. A nil tracker ignores
// Observe.
type BudgetTracker struct {
	budget time.Duration

	frames     *Counter
	blown      *Counter
	totalHist  *Histogram
	stageHists map[string]*Histogram
	blownBy    map[string]*Counter

	mu   sync.Mutex
	ring []BudgetReport
	next int
	full bool
}

// DefaultReportCapacity bounds the report ring.
const DefaultReportCapacity = 1024

// NewBudgetTracker registers the budget metric family in reg (any
// registry; labels distinguish instances) and returns the tracker.
// budget <= 0 selects DefaultBudget.
func NewBudgetTracker(budget time.Duration, reg *Registry, labels ...Label) *BudgetTracker {
	if budget <= 0 {
		budget = DefaultBudget
	}
	if reg == nil {
		reg = NewRegistry()
	}
	bt := &BudgetTracker{
		budget:     budget,
		frames:     reg.Counter("mar_budget_frames_total", labels...),
		blown:      reg.Counter("mar_budget_blown_total", labels...),
		totalHist:  reg.Histogram("mar_budget_total_ns", labels...),
		stageHists: make(map[string]*Histogram, len(stageOrder)),
		blownBy:    make(map[string]*Counter, len(stageOrder)),
		ring:       make([]BudgetReport, DefaultReportCapacity),
	}
	for _, st := range stageOrder {
		ls := append(append([]Label(nil), labels...), L("stage", st))
		bt.stageHists[st] = reg.Histogram("mar_budget_stage_ns", ls...)
		bt.blownBy[st] = reg.Counter("mar_budget_blown_by_stage_total", ls...)
	}
	return bt
}

// Observe folds one report into the aggregates. The report's Budget field
// is stamped from the tracker when unset.
func (bt *BudgetTracker) Observe(r BudgetReport) {
	if bt == nil {
		return
	}
	if r.Budget == 0 {
		r.Budget = bt.budget
	}
	bt.frames.Inc()
	bt.totalHist.ObserveDuration(r.Total)
	for _, s := range r.Stages() {
		bt.stageHists[s.Name].ObserveDuration(s.Dur)
	}
	if r.Blown() {
		bt.blown.Inc()
		bt.blownBy[r.Dominant().Name].Inc()
	}
	bt.mu.Lock()
	bt.ring[bt.next] = r
	bt.next++
	if bt.next == len(bt.ring) {
		bt.next = 0
		bt.full = true
	}
	bt.mu.Unlock()
}

// Reports returns the retained reports, oldest first.
func (bt *BudgetTracker) Reports() []BudgetReport {
	if bt == nil {
		return nil
	}
	bt.mu.Lock()
	defer bt.mu.Unlock()
	if !bt.full {
		return append([]BudgetReport(nil), bt.ring[:bt.next]...)
	}
	out := make([]BudgetReport, 0, len(bt.ring))
	out = append(out, bt.ring[bt.next:]...)
	return append(out, bt.ring[:bt.next]...)
}

// Frames reports how many frames were observed.
func (bt *BudgetTracker) Frames() int64 {
	if bt == nil {
		return 0
	}
	return bt.frames.Value()
}

// Blown reports how many frames exceeded the budget.
func (bt *BudgetTracker) Blown() int64 {
	if bt == nil {
		return 0
	}
	return bt.blown.Value()
}

// BlownByStage returns the blown-frame counts keyed by dominant stage.
func (bt *BudgetTracker) BlownByStage() map[string]int64 {
	if bt == nil {
		return nil
	}
	out := make(map[string]int64, len(bt.blownBy))
	for st, c := range bt.blownBy {
		out[st] = c.Value()
	}
	return out
}
