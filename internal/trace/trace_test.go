package trace

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("x")
	if s.Len() != 0 || s.Last() != 0 || s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Fatalf("empty series should report zeros")
	}
	s.Add(1*time.Second, 10)
	s.Add(2*time.Second, 20)
	s.Add(3*time.Second, 30)
	if got := s.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if got := s.Last(); got != 30 {
		t.Errorf("Last = %v, want 30", got)
	}
	if got := s.Mean(); got != 20 {
		t.Errorf("Mean = %v, want 20", got)
	}
	if got := s.Max(); got != 30 {
		t.Errorf("Max = %v, want 30", got)
	}
	if got := s.Min(); got != 10 {
		t.Errorf("Min = %v, want 10", got)
	}
}

func TestSeriesAt(t *testing.T) {
	s := NewSeries("x")
	s.Add(1*time.Second, 1)
	s.Add(5*time.Second, 5)
	tests := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0},
		{999 * time.Millisecond, 0},
		{1 * time.Second, 1},
		{3 * time.Second, 1},
		{5 * time.Second, 5},
		{time.Hour, 5},
	}
	for _, tc := range tests {
		if got := s.At(tc.at); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestSeriesWindow(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	if got := s.Window(2*time.Second, 5*time.Second); got != 3 {
		t.Errorf("Window(2s,5s) = %v, want 3 (mean of 2,3,4)", got)
	}
	if got := s.Window(100*time.Second, 200*time.Second); got != 0 {
		t.Errorf("empty window = %v, want 0", got)
	}
}

func TestDurStats(t *testing.T) {
	var d DurStats
	if d.Mean() != 0 || d.Percentile(50) != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Fatalf("empty stats should report zeros")
	}
	for i := 1; i <= 100; i++ {
		d.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := d.Count(); got != 100 {
		t.Errorf("Count = %d, want 100", got)
	}
	if got := d.Min(); got != time.Millisecond {
		t.Errorf("Min = %v, want 1ms", got)
	}
	if got := d.Max(); got != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", got)
	}
	if got := d.Mean(); got != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", got)
	}
	if got := d.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
	if got := d.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", got)
	}
	if got := d.Percentile(0); got != time.Millisecond {
		t.Errorf("p0 = %v, want 1ms", got)
	}
	if got := d.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v, want 100ms", got)
	}
}

// Percentile must always return one of the observed samples and be monotone
// in p.
func TestDurStatsPercentileProperty(t *testing.T) {
	f := func(raw []int16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var d DurStats
		set := make(map[time.Duration]bool, len(raw))
		for _, r := range raw {
			v := time.Duration(int(r)&0x7fff) * time.Microsecond
			d.Observe(v)
			set[v] = true
		}
		p := float64(pRaw) / 255 * 100
		v := d.Percentile(p)
		if !set[v] {
			return false
		}
		// Monotonicity against a coarse grid.
		prev := time.Duration(-1)
		for q := 0.0; q <= 100; q += 10 {
			cur := d.Percentile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Single-sample edges: every p — including NaN and out-of-range — must
// return the one sample without panicking.
func TestDurStatsPercentileSingleSample(t *testing.T) {
	var d DurStats
	d.Observe(7 * time.Millisecond)
	for _, p := range []float64{math.NaN(), math.Inf(-1), -5, 0, 0.001, 50, 99.999, 100, 250, math.Inf(1)} {
		if got := d.Percentile(p); got != 7*time.Millisecond {
			t.Errorf("Percentile(%v) = %v, want 7ms", p, got)
		}
	}
}

// Percentile must agree with a sort-based exact nearest-rank reference.
// The reference avoids float division entirely: the nearest rank for an
// integer percentile p over n samples is the smallest k with 100k >= pn,
// which is exact in integer arithmetic.
func TestDurStatsPercentileMatchesExact(t *testing.T) {
	exact := func(sorted []time.Duration, p int) time.Duration {
		n := len(sorted)
		if p <= 0 {
			return sorted[0]
		}
		for k := 1; k <= n; k++ {
			if 100*k >= p*n {
				return sorted[k-1]
			}
		}
		return sorted[n-1]
	}
	f := func(raw []uint16, extra uint8) bool {
		if len(raw) == 0 {
			raw = []uint16{uint16(extra)}
		}
		var d DurStats
		sorted := make([]time.Duration, 0, len(raw))
		for _, r := range raw {
			v := time.Duration(r) * time.Microsecond
			d.Observe(v)
			sorted = append(sorted, v)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for p := 0; p <= 100; p++ {
			if got, want := d.Percentile(float64(p)), exact(sorted, p); got != want {
				t.Logf("n=%d p=%d: got %v, exact %v", len(sorted), p, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughput(t *testing.T) {
	tp := NewThroughput(time.Second)
	tp.Record(100*time.Millisecond, 125_000) // 1 Mb in bin 0
	tp.Record(500*time.Millisecond, 125_000) // another 1 Mb in bin 0
	tp.Record(1500*time.Millisecond, 125_000)
	if got := tp.Rate(0); got != 2e6 {
		t.Errorf("bin0 rate = %v, want 2e6", got)
	}
	if got := tp.Rate(1900 * time.Millisecond); got != 1e6 {
		t.Errorf("bin1 rate = %v, want 1e6", got)
	}
	if got := tp.TotalBytes(); got != 375_000 {
		t.Errorf("TotalBytes = %d, want 375000", got)
	}
	s := tp.Series("tp")
	if s.Len() != 2 {
		t.Errorf("series len = %d, want 2", s.Len())
	}
	if s.Values[0] != 2e6 || s.Values[1] != 1e6 {
		t.Errorf("series values = %v", s.Values)
	}
}

func TestThroughputDefaults(t *testing.T) {
	tp := NewThroughput(0)
	if tp.Bin != time.Second {
		t.Errorf("zero bin should default to 1s, got %v", tp.Bin)
	}
	if tp.MeanRate() != 0 {
		t.Errorf("empty sampler MeanRate should be 0")
	}
	tp.Record(2*time.Second, 250_000) // 2 Mb over 2s -> 1 Mb/s
	if got := tp.MeanRate(); got != 1e6 {
		t.Errorf("MeanRate = %v, want 1e6", got)
	}
}

func TestCounterAndMbps(t *testing.T) {
	if got := Mbps(12_340_000); got != "12.34 Mb/s" {
		t.Errorf("Mbps = %q", got)
	}
}
