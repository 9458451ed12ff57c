package rpc

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"marnet/internal/faults"
	"marnet/internal/obs"
)

// TestTracedCallBudget: a traced call produces a client span, a server
// span stitched to the same trace, and a BudgetReport whose stages sum
// exactly to the measured call duration.
func TestTracedCallBudget(t *testing.T) {
	srvTracer := obs.NewTracer(128, 1)
	srv, err := NewServer("127.0.0.1:0", nil, testHandler, WithTracer(srvTracer))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cliTracer := obs.NewTracer(128, 2)
	cl, err := Dial(srv.Addr(), ClientConfig{Tracer: cliTracer, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const calls = 10
	for i := 0; i < calls; i++ {
		resp, err := cl.Call(methodEcho, []byte{byte(i)}, 2*time.Second)
		if err != nil || !bytes.Equal(resp, []byte{byte(i)}) {
			t.Fatalf("call %d: %q, %v", i, resp, err)
		}
	}

	reports := cl.BudgetTracker().Reports()
	if len(reports) != calls {
		t.Fatalf("got %d budget reports, want %d", len(reports), calls)
	}
	for i, r := range reports {
		if r.Trace == 0 {
			t.Errorf("report %d has no trace id", i)
		}
		if r.Sum() != r.Total {
			t.Errorf("report %d: stage sum %v != total %v", i, r.Sum(), r.Total)
		}
		if r.Attempts != 1 {
			t.Errorf("report %d: attempts = %d, want 1 on a clean network", i, r.Attempts)
		}
	}

	cliSpans := cliTracer.Take()
	srvSpans := srvTracer.Take()
	if len(cliSpans) != calls {
		t.Fatalf("client spans = %d, want %d", len(cliSpans), calls)
	}
	if len(srvSpans) != calls {
		t.Fatalf("server spans = %d, want %d", len(srvSpans), calls)
	}
	// Each call's trace id crosses the wire: every client span's trace
	// holds exactly one server span.
	clients := map[obs.TraceID]*obs.Span{}
	for _, s := range cliSpans {
		clients[s.Trace] = s
	}
	for _, server := range srvSpans {
		if clients[server.Trace] == nil {
			t.Fatalf("server span %+v joins no client trace", server)
		}
		delete(clients, server.Trace)
		var compute time.Duration
		for _, st := range server.Stages {
			if st.Name == obs.StageCompute {
				compute += st.Dur
			}
		}
		if compute <= 0 {
			t.Errorf("server span has no compute stage: %+v", server.Stages)
		}
	}
}

// TestUntracedInterop: a client without a tracer sends wire frames without
// flagTraced end to end against a tracer-equipped server — no spans, no
// reports, correct answers.
func TestUntracedInterop(t *testing.T) {
	srvTracer := obs.NewTracer(16, 1)
	srv, err := NewServer("127.0.0.1:0", nil, testHandler, WithTracer(srvTracer))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Call(methodEcho, []byte("legacy"), 2*time.Second)
	if err != nil || string(resp) != "legacy" {
		t.Fatalf("untraced call: %q, %v", resp, err)
	}
	if cl.BudgetTracker() != nil {
		t.Error("tracker must be nil without a tracer")
	}
	if got := srvTracer.Take(); len(got) != 0 {
		t.Errorf("server minted %d spans for untraced calls", len(got))
	}
}

// TestMetricsMatchStats: the registry's read-through counters must agree
// exactly with the legacy Stats snapshots they mirror.
func TestMetricsMatchStats(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 7; i++ {
		if _, err := cl.Call(methodEcho, []byte{1}, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Probe(time.Second); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv.PublishMetrics(reg, obs.L("role", "server"))

	check := func(name string, labels []obs.Label, want int64) {
		t.Helper()
		p, ok := lookup(reg, name, labels...)
		if !ok {
			t.Fatalf("metric %s%v not registered", name, labels)
		}
		if int64(p.Value) != want {
			t.Errorf("%s = %v, stats say %d", name, p.Value, want)
		}
	}
	ss := srv.Stats()
	sl := []obs.Label{obs.L("role", "server")}
	check("mar_rpc_server_served_total", sl, ss.Served)
	check("mar_rpc_server_probes_total", sl, ss.Probes)
	check("mar_rpc_server_shed_total", sl, ss.Shed)
	check("mar_gate_admitted_total", sl, ss.Gate.Admitted)
	check("mar_gate_completed_total", sl, ss.Gate.Completed)
	check("mar_admission_dispatched_total",
		append(sl, obs.L("tier", "0")), ss.Gate.Admission.Dispatched[0])

	if ss.Served == 0 {
		t.Fatal("sanity: no calls recorded")
	}
}

// TestChaosBudgetAttribution is the acceptance scenario for budget
// attribution: under a lossy, delayed, reordering network with retries
// and hedging, every per-frame BudgetReport's stage latencies must sum
// to within 5% of the measured end-to-end duration (they are exact by
// construction; the bound guards the wire-measured inputs), retry/hedge
// overhead must show up in the overhead stage, and the blown-frame
// counters must agree with the reports.
func TestChaosBudgetAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos budget run takes a few seconds")
	}
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	storm := faults.DirConfig{
		Loss:    0.15,
		Delay:   4 * time.Millisecond,
		Jitter:  2 * time.Millisecond,
		Reorder: 0.02,
	}
	relay, err := faults.NewRelay(srv.Addr(), faults.Config{Seed: 11, Up: storm, Down: storm})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	tracer := obs.NewTracer(1024, 5)
	reg := obs.NewRegistry()
	cl, err := Dial(relay.Addr(), ClientConfig{
		Tracer:  tracer,
		Budget:  30 * time.Millisecond, // tight: jittered retries must blow it
		Metrics: reg,
		Retry:   RetryPolicy{Max: 3, Backoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond},
		Hedge:   HedgePolicy{Delay: 25 * time.Millisecond},
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const total = 80
	completed := 0
	for i := 0; i < total; i++ {
		if _, err := cl.Call(methodEcho, []byte{byte(i)}, 400*time.Millisecond); err == nil {
			completed++
		}
	}
	if completed < total*3/4 {
		t.Fatalf("only %d/%d calls completed; storm too harsh for the test", completed, total)
	}

	bt := cl.BudgetTracker()
	reports := bt.Reports()
	if len(reports) != total {
		t.Fatalf("reports = %d, want %d (failed calls must report too)", len(reports), total)
	}
	retried, blown := 0, 0
	for i, r := range reports {
		sum, tot := r.Sum(), r.Total
		diff := sum - tot
		if diff < 0 {
			diff = -diff
		}
		if tot > 0 && float64(diff) > 0.05*float64(tot) {
			t.Errorf("report %d: stage sum %v vs total %v (off %.1f%%)",
				i, sum, tot, 100*float64(diff)/float64(tot))
		}
		if r.Attempts > 1 || r.Hedged {
			retried++
			if r.Overhead == 0 && r.Attempts > 1 {
				t.Errorf("report %d: %d attempts but zero overhead stage", i, r.Attempts)
			}
		}
		if r.Blown() {
			blown++
		}
	}
	if retried == 0 {
		t.Error("no report shows retry/hedge overhead despite 15% loss")
	}
	if blown == 0 {
		t.Error("no frame blew a 30 ms budget under a jittered lossy path")
	}
	if got := bt.Blown(); got != int64(blown) {
		t.Errorf("tracker blown = %d, reports say %d", got, blown)
	}
	if bt.Frames() != int64(total) {
		t.Errorf("tracker frames = %d, want %d", bt.Frames(), total)
	}
	// The registry mirrors the tracker.
	if p, ok := lookup(reg, "mar_budget_blown_total"); !ok || int64(p.Value) != bt.Blown() {
		t.Errorf("registry blown = %+v ok=%v, tracker says %d", p, ok, bt.Blown())
	}
	t.Logf("chaos budget: %d/%d ok, %d retried/hedged, %d blown, dominant of first blown: %v",
		completed, total, retried, blown, firstBlownDominant(reports))
}

func firstBlownDominant(reports []obs.BudgetReport) string {
	for _, r := range reports {
		if r.Blown() {
			return r.Dominant().Name
		}
	}
	return "none"
}

// lookup reads the point for name+labels (in registration order) off
// reg's export.
func lookup(reg *obs.Registry, name string, labels ...obs.Label) (obs.Point, bool) {
	for _, p := range reg.Gather() {
		if p.Name == name && slices.Equal(p.Labels, labels) {
			return p, true
		}
	}
	return obs.Point{}, false
}
