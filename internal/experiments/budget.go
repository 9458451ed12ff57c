package experiments

import (
	"fmt"
	"strings"
	"time"

	"marnet/internal/faults"
	"marnet/internal/obs"
	"marnet/internal/rpc"
	"marnet/internal/trace"
)

// BudgetStageRow aggregates one pipeline stage across all frames.
type BudgetStageRow struct {
	Stage string
	Mean  time.Duration
	P95   time.Duration
	Share float64 // fraction of total end-to-end time spent here
	Blown int64   // frames over budget with this stage dominant
}

// BudgetResult is the 75 ms budget-attribution study: where each frame's
// motion-to-photon time went, measured on real sockets through an
// impaired relay.
type BudgetResult struct {
	Budget   time.Duration
	Frames   int
	Complete int
	Retried  int // frames needing >1 attempt or a hedge
	Blown    int64
	Rows     []BudgetStageRow

	TotalMean time.Duration
	TotalP95  time.Duration
	// MaxSumErr is the largest |stage sum - measured total| / total across
	// all frames — the attribution-exactness acceptance metric.
	MaxSumErr float64
}

// Budget runs the Section III-B latency-budget study end to end: a traced
// client offloads frames over a lossy, jittered path with retries and
// hedging enabled, and every frame's end-to-end latency is attributed to
// the six budget stages (queue, compute, net up/down, serialize,
// retry/hedge overhead). The interesting output is the attribution table:
// under loss, blown frames are dominated by retry overhead, not compute —
// the paper's argument for why transport, not GPU, is the MAR bottleneck.
func Budget(seed int64) BudgetResult {
	const (
		service = 3 * time.Millisecond
		budget  = obs.DefaultBudget
		frames  = 150
	)
	handler := func(method uint8, req []byte) []byte {
		time.Sleep(service)
		return req
	}
	srv, err := rpc.NewServer("127.0.0.1:0", nil, handler)
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	storm := faults.DirConfig{
		Loss:   0.10,
		Delay:  3 * time.Millisecond,
		Jitter: 2 * time.Millisecond,
	}
	relay, err := faults.NewRelay(srv.Addr(), faults.Config{Seed: seed, Up: storm, Down: storm})
	if err != nil {
		panic(err)
	}
	defer relay.Close()

	cl, err := rpc.Dial(relay.Addr(), rpc.ClientConfig{
		Tracer: obs.NewTracer(frames, seed),
		Budget: budget,
		Retry:  rpc.RetryPolicy{Max: 3, Backoff: 8 * time.Millisecond, MaxBackoff: 32 * time.Millisecond},
		Hedge:  rpc.HedgePolicy{Delay: 40 * time.Millisecond},
		Seed:   seed + 1,
	})
	if err != nil {
		panic(err)
	}
	defer cl.Close()

	res := BudgetResult{Budget: budget, Frames: frames}
	payload := make([]byte, 600) // a pose update plus features
	for i := 0; i < frames; i++ {
		if _, err := cl.Call(1, payload, 300*time.Millisecond); err == nil {
			res.Complete++
		}
	}

	bt := cl.BudgetTracker()
	reports := bt.Reports()
	res.Blown = bt.Blown()
	blownBy := bt.BlownByStage()

	var totals trace.DurStats
	perStage := map[string]*trace.DurStats{}
	var grand time.Duration
	stageSum := map[string]time.Duration{}
	for _, r := range reports {
		totals.Observe(r.Total)
		grand += r.Total
		if r.Attempts > 1 || r.Hedged {
			res.Retried++
		}
		if r.Total > 0 {
			err := float64(r.Sum()-r.Total) / float64(r.Total)
			if err < 0 {
				err = -err
			}
			if err > res.MaxSumErr {
				res.MaxSumErr = err
			}
		}
		for _, s := range r.Stages() {
			d, ok := perStage[s.Name]
			if !ok {
				d = &trace.DurStats{}
				perStage[s.Name] = d
			}
			d.Observe(s.Dur)
			stageSum[s.Name] += s.Dur
		}
	}
	res.TotalMean = totals.Mean()
	res.TotalP95 = totals.Percentile(95)
	for _, name := range []string{obs.StageQueue, obs.StageCompute, obs.StageNetUp,
		obs.StageNetDown, obs.StageSerialize, obs.StageOverhead} {
		d := perStage[name]
		if d == nil {
			continue
		}
		row := BudgetStageRow{Stage: name, Mean: d.Mean(), P95: d.Percentile(95), Blown: blownBy[name]}
		if grand > 0 {
			row.Share = float64(stageSum[name]) / float64(grand)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Format renders the attribution table.
func (r BudgetResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Budget — %v motion-to-photon attribution over a 10%% lossy path (%d frames, %d complete, %d retried/hedged)\n",
		r.Budget, r.Frames, r.Complete, r.Retried)
	fmt.Fprintf(&b, "%-10s %10s %10s %8s %14s\n", "stage", "mean", "p95", "share", "blown-dominant")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10s %10s %7.1f%% %14d\n",
			row.Stage, row.Mean.Round(time.Microsecond), row.P95.Round(time.Microsecond),
			100*row.Share, row.Blown)
	}
	fmt.Fprintf(&b, "end-to-end: mean=%v p95=%v; %d/%d frames blew the budget; max attribution error %.2f%%\n",
		r.TotalMean.Round(time.Microsecond), r.TotalP95.Round(time.Microsecond),
		r.Blown, r.Frames, 100*r.MaxSumErr)
	return b.String()
}
