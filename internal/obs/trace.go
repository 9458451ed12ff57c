package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end frame journey; every span of the
// journey — client call, wire frames, server queue wait, handler — shares
// it. Zero means "not traced" and is never generated.
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no parent".
type SpanID uint64

// Stage is one named latency component recorded inside a span.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Span is one timed operation of a trace. Spans are built by a single
// goroutine (the one running the operation) and published to the tracer
// by Finish; they are not safe for concurrent mutation. All methods are
// nil-safe, so code instrumented against a disabled tracer pays nothing.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Stages []Stage

	tracer *Tracer
}

// Stage records a named latency component.
func (s *Span) Stage(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.Stages = append(s.Stages, Stage{Name: name, Dur: d})
}

// Finish hands the span to the tracer's ring. Calling Finish more than
// once publishes only the first time.
func (s *Span) Finish() {
	if s == nil || s.tracer == nil {
		return
	}
	t := s.tracer
	s.tracer = nil
	t.publish(s)
}

// Tracer mints spans and retains the most recent finished ones in a
// bounded ring. A nil *Tracer is valid and permanently disabled; all
// methods are nil-safe.
type Tracer struct {
	enabled atomic.Bool
	nextID  atomic.Uint64
	seed    uint64

	mu      sync.Mutex
	ring    []*Span
	next    int
	wrapped bool
	dropped int64
}

// DefaultSpanCapacity bounds the finished-span ring when NewTracer is
// given no capacity.
const DefaultSpanCapacity = 4096

// NewTracer returns an enabled tracer retaining up to capacity finished
// spans (DefaultSpanCapacity when capacity <= 0). seed perturbs ID
// generation so two tracers in one process mint distinct trace IDs.
func NewTracer(capacity int, seed int64) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	t := &Tracer{ring: make([]*Span, capacity), seed: uint64(seed)*0x9E3779B97F4A7C15 + 0x1}
	t.enabled.Store(true)
	return t
}

// SetEnabled flips tracing. Disabled tracers return nil spans — the
// <2-allocation fast path asserted by BenchmarkSpanDisabled.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether spans are being minted.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// splitmix64 is the id mixer (public-domain constant set): counter in,
// well-distributed nonzero-ish id out.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (t *Tracer) id() uint64 {
	for {
		if v := splitmix64(t.seed + t.nextID.Add(1)); v != 0 {
			return v
		}
	}
}

// StartTrace mints a new trace and its root span. Returns nil when
// disabled. name labels the call site only: a span keeps no name, since
// nothing reads one.
func (t *Tracer) StartTrace(name string) *Span {
	if !t.Enabled() {
		return nil
	}
	return &Span{Trace: TraceID(t.id()), ID: SpanID(t.id()), tracer: t}
}

// StartSpan opens a span inside an existing trace (the trace arrives off
// the wire on the server side). Returns nil when disabled or when trace is
// zero.
func (t *Tracer) StartSpan(trace TraceID) *Span {
	if !t.Enabled() || trace == 0 {
		return nil
	}
	return &Span{Trace: trace, ID: SpanID(t.id()), tracer: t}
}

func (t *Tracer) publish(s *Span) {
	t.mu.Lock()
	if t.ring[t.next] != nil {
		t.dropped++
	}
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	t.mu.Unlock()
}

// Take drains and returns the finished spans, oldest first.
func (t *Tracer) Take() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.ring))
	start := 0
	if t.wrapped {
		start = t.next
	}
	for i := 0; i < len(t.ring); i++ {
		idx := (start + i) % len(t.ring)
		if t.ring[idx] != nil {
			out = append(out, t.ring[idx])
			t.ring[idx] = nil
		}
	}
	t.next = 0
	t.wrapped = false
	return out
}

// Dropped reports how many finished spans were evicted unobserved.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
