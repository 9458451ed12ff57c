package obs

import (
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	tr := NewTracer(16, 1)
	root := tr.StartTrace("call")
	if root == nil || root.Trace == 0 || root.ID == 0 {
		t.Fatalf("root span not minted: %+v", root)
	}
	root.Stage("attempt", 3*time.Millisecond)
	root.Stage("attempt", 2*time.Millisecond)
	if got := len(root.Stages); got != 2 || root.Stages[0].Dur+root.Stages[1].Dur != 5*time.Millisecond {
		t.Fatalf("stages = %v, want 3ms + 2ms", root.Stages)
	}
	child := tr.StartSpan(root.Trace)
	if child.Trace != root.Trace || child.ID == root.ID {
		t.Fatalf("child not linked: %+v", child)
	}
	child.Finish()
	root.Finish()
	root.Finish() // double finish publishes once

	spans := tr.Take()
	if len(spans) != 2 {
		t.Fatalf("got %d finished spans, want 2", len(spans))
	}
	if len(tr.Take()) != 0 {
		t.Fatal("Take must drain")
	}
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Fatalf("span %x left trace %x", s.ID, root.Trace)
		}
	}
}

func TestTracerDisabledAndNil(t *testing.T) {
	tr := NewTracer(4, 2)
	tr.SetEnabled(false)
	if s := tr.StartTrace("x"); s != nil {
		t.Fatal("disabled tracer must mint nil spans")
	}
	var nilT *Tracer
	if nilT.Enabled() {
		t.Fatal("nil tracer is disabled")
	}
	s := nilT.StartTrace("x")
	// Every method on a nil span must be a no-op, not a panic.
	s.Stage("a", time.Millisecond)
	s.Finish()
	if nilT.Take() != nil || nilT.Dropped() != 0 {
		t.Fatal("nil tracer must report empty state")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2, 3)
	for i := 0; i < 5; i++ {
		tr.StartTrace("s").Finish()
	}
	if got := len(tr.Take()); got != 2 {
		t.Fatalf("ring retained %d spans, want 2", got)
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
}

func TestTraceIDsDistinct(t *testing.T) {
	tr := NewTracer(16, 4)
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		s := tr.StartTrace("s")
		if seen[s.Trace] {
			t.Fatalf("duplicate trace id %x", s.Trace)
		}
		seen[s.Trace] = true
	}
}

// TestDisabledTracingAllocs is the satellite guarantee behind
// BenchmarkSpanDisabled: instrumentation against a disabled (or nil)
// tracer must cost fewer than 2 allocations per call.
func TestDisabledTracingAllocs(t *testing.T) {
	tr := NewTracer(4, 5)
	tr.SetEnabled(false)
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.StartTrace("frame")
		s.Stage("queue", time.Millisecond)
		s.Finish()
	})
	if allocs >= 2 {
		t.Fatalf("disabled tracing costs %.1f allocs/call, want < 2", allocs)
	}
	var nilT *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		s := nilT.StartSpan(1)
		s.Stage("queue", time.Millisecond)
		s.Finish()
	})
	if allocs >= 2 {
		t.Fatalf("nil-tracer tracing costs %.1f allocs/call, want < 2", allocs)
	}
}
