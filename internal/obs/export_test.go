package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", L("stream", "video")).Add(3)
	r.GaugeFunc("queue_depth", func() float64 { return 1.5 })
	h := r.Histogram("latency_ns")
	h.Observe(1000)
	h.Observe(2000)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE frames_total counter",
		`frames_total{stream="video"} 3`,
		"# TYPE queue_depth gauge",
		"queue_depth 1.5",
		"# TYPE latency_ns summary",
		`latency_ns{quantile="0.5"}`,
		"latency_ns_sum 3000",
		"latency_ns_count 2",
		"latency_ns_max 2000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// Two registries holding identical state registered in opposite orders
// must scrape byte-identically — and a rescrape of unchanged state must
// reproduce the exact bytes. CI depends on this: scrape diffs mean state
// diffs.
func TestWritePrometheusDeterministicAcrossRegistrationOrder(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("zz_total", L("s", "b")).Add(2) },
			func() { r.Counter("zz_total", L("s", "a")).Add(1) },
			func() { r.GaugeFunc("mid_depth", func() float64 { return 3.5 }) },
			func() { r.Counter("aa_total").Add(7) },
			func() { r.Histogram("lat_ns", L("leg", "x")).Observe(100) },
		}
		if reverse {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		return r
	}
	scrape := func(r *Registry) string {
		var sb strings.Builder
		if err := WritePrometheus(&sb, r); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	fwd, rev := build(false), build(true)
	a, b := scrape(fwd), scrape(rev)
	if a != b {
		t.Fatalf("registration order leaked into the scrape:\n--- forward\n%s--- reverse\n%s", a, b)
	}
	if again := scrape(fwd); again != a {
		t.Fatalf("rescrape of unchanged state differs:\n--- first\n%s--- second\n%s", a, again)
	}
	// Sorted exposition means each family appears exactly once as a TYPE
	// line, with names in lexicographic order.
	var typeLines []string
	for _, line := range strings.Split(a, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typeLines = append(typeLines, line)
		}
	}
	want := []string{
		"# TYPE aa_total counter",
		"# TYPE lat_ns summary",
		"# TYPE mid_depth gauge",
		"# TYPE zz_total counter",
	}
	if len(typeLines) != len(want) {
		t.Fatalf("TYPE lines = %v, want %v", typeLines, want)
	}
	for i := range want {
		if typeLines[i] != want[i] {
			t.Errorf("TYPE line %d = %q, want %q", i, typeLines[i], want[i])
		}
	}
}

func TestWriteExpvarDeterministicAcrossRegistrationOrder(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x_total", L("k", "1")).Inc()
	a.Counter("x_total", L("k", "2")).Inc()
	b.Counter("x_total", L("k", "2")).Inc()
	b.Counter("x_total", L("k", "1")).Inc()
	scrape := func(r *Registry) string {
		var sb strings.Builder
		if err := WriteExpvar(&sb, r); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if sa, sb_ := scrape(a), scrape(b); sa != sb_ {
		t.Fatalf("expvar export depends on registration order:\n%s\nvs\n%s", sa, sb_)
	}
}

func TestWriteExpvarIsValidJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Histogram("h", L("x", `quo"te`)).Observe(5)
	var b strings.Builder
	if err := WriteExpvar(&b, r); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(b.String()), &m); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v\n%s", err, b.String())
	}
	if m["a"] != float64(1) {
		t.Fatalf("a = %v, want 1", m["a"])
	}
}

func TestMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(12)
	healthy := true
	mux := NewMux(func() (string, bool) { return "degraded", healthy }, r)

	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "served_total 12") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"served_total": 12`) {
		t.Fatalf("/metrics.json = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "degraded") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	healthy = false
	if code, _ := get("/healthz"); code != 503 {
		t.Fatalf("/healthz while unhealthy = %d, want 503", code)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// SetEnabled flips recording (and freezing). Disabled recorders drop
// events without touching the ring.
func (r *FlightRecorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Enabled reports whether events are being retained.
func (r *FlightRecorder) Enabled() bool { return r != nil && r.enabled.Load() }

// lookup returns the gathered point for name+labels, labels in any order.
func lookup(r *Registry, name string, labels ...Label) (Point, bool) {
	k := key(name, labels)
	for _, p := range r.Gather() {
		if key(p.Name, p.Labels) == k {
			return p, true
		}
	}
	return Point{}, false
}

// Session reports the recorder's session label ("" when nil).
func (r *FlightRecorder) Session() string {
	if r == nil {
		return ""
	}
	return r.cfg.Session
}

// Events returns a copy of the live ring, oldest first.
func (r *FlightRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked(0)
}

// SLOState is a consistent snapshot of the objective.
type SLOState struct {
	Name                   string
	Objective              float64
	Hits, Misses, Triggers int64 // Hits and Misses: the slow window's
	FastBurn, SlowBurn     float64
	FastFrames, SlowFrames int64
}

// HitRatio is the slow window's hits/(hits+misses) (1 when no
// observations).
func (st SLOState) HitRatio() float64 {
	if st.Hits+st.Misses == 0 {
		return 1
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

// State evaluates the windows at the current clock reading.
func (s *SLO) State() SLOState {
	if s == nil {
		return SLOState{}
	}
	now := s.clock.Since(s.epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := int64(now / s.cfg.Slot)
	st := SLOState{Name: s.cfg.Name, Objective: s.cfg.Objective, Triggers: s.triggers}
	for _, sl := range s.slots {
		if sl.idx > idx-s.nslow && sl.idx <= idx {
			st.Hits += sl.hits
			st.Misses += sl.misses
		}
	}
	st.FastBurn, st.FastFrames = s.burnLocked(idx, s.nfast)
	st.SlowBurn, st.SlowFrames = s.burnLocked(idx, s.nslow)
	return st
}
