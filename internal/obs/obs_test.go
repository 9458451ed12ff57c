package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	r := NewRegistry()
	g := 2.5
	r.GaugeFunc("g", func() float64 { return g })
	g--
	if p, _ := lookup(r, "g"); p.Value != 1.5 {
		t.Fatalf("gauge = %v, want 1.5 (read at gather time)", p.Value)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	var exact []int64
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1_000_000)
		exact = append(exact, v)
		h.Observe(v)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := exact[int(q*float64(len(exact)-1))]
		got := s.Quantile(q)
		// Log-bucketed with 4 sub-buckets per octave: <= 12.5% relative
		// error, plus slack for the rank-vs-index convention.
		if diff := float64(got-want) / float64(want); diff > 0.15 || diff < -0.15 {
			t.Errorf("q%.2f = %d, exact %d (err %.1f%%)", q, got, want, 100*diff)
		}
	}
	if s.Max != exact[len(exact)-1] {
		t.Errorf("max = %d, want %d", s.Max, exact[len(exact)-1])
	}
	if s.Count != int64(len(exact)) {
		t.Errorf("count = %d, want %d", s.Count, len(exact))
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Quantile(0.5) != 0 || s.Max != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	h.Observe(3)
	if got := h.Snapshot().Quantile(1); got != 3 {
		t.Fatalf("q100 of {0,0,3} = %d, want 3", got)
	}
	h.ObserveDuration(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	// Quantile estimates never exceed the exact max.
	if got := s.Quantile(0.99); got > s.Max {
		t.Fatalf("q99 %d > max %d", got, s.Max)
	}
}

func TestBucketMonotone(t *testing.T) {
	// Bucket index must be monotone in the value and bucketMid must land
	// inside the bucket.
	prev := -1
	for v := int64(0); v < 1<<20; v = v*5/4 + 1 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d", v, b, prev)
		}
		prev = b
		if mb := bucketOf(bucketMid(b)); mb != b {
			t.Fatalf("bucketMid(%d) = %d maps to bucket %d", b, bucketMid(b), mb)
		}
	}
}

func TestRegistrySameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("k", "v"))
	b := r.Counter("x", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	if c := r.Counter("x", L("k", "w")); c == a {
		t.Fatal("different labels must return a distinct counter")
	}
	a.Inc()
	p, ok := lookup(r, "x", L("k", "v"))
	if !ok || p.Value != 1 {
		t.Fatalf("lookup = %+v ok=%v, want value 1", p, ok)
	}
	if _, ok := lookup(r, "nope"); ok {
		t.Fatal("lookup of unknown metric must fail")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Histogram("m")
}

func TestRegistryFuncs(t *testing.T) {
	r := NewRegistry()
	n := int64(7)
	r.CounterFunc("snap", func() int64 { return n })
	r.GaugeFunc("load", func() float64 { return 0.25 })
	p, _ := lookup(r, "snap")
	if p.Value != 7 {
		t.Fatalf("counterfunc = %v, want 7", p.Value)
	}
	n = 9
	r.CounterFunc("snap", func() int64 { return n }) // re-register replaces
	if p, _ = lookup(r, "snap"); p.Value != 9 {
		t.Fatalf("counterfunc after replace = %v, want 9", p.Value)
	}
	if p, _ = lookup(r, "load"); p.Value != 0.25 {
		t.Fatalf("gaugefunc = %v, want 0.25", p.Value)
	}
}

func TestRegistryLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", L("a", "1"), L("b", "2"))
	b := r.Counter("m", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order must not distinguish metrics")
	}
}
