package main

import (
	"math"
	"testing"
)

func TestPickPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{100_000, 0.999, 0.999}, // 100 samples beyond
		{10_000, 0.999, 0.999},  // exactly 10 beyond
		{9_999, 0.999, 0.99},    // 9.999 beyond p99.9: one rung down
		{2_880, 0.999, 0.99},    // the lossy workload: 28 beyond p99
		{2_880, 0.99, 0.99},
		{999, 0.99, 0.9},
		{100, 0.99, 0.9},
		{99, 0.99, 0.5},
		{5, 0.999, 0.5}, // the median is the floor
		{100_000, 0.5, 0.5},
	} {
		if got := pickPercentile(c.n, c.want); got != c.got {
			t.Errorf("pickPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1, unsorted on purpose
	}
	got := tailOf(xs, 0.999)
	if got.Percentile != 0.99 || got.Value != 990 || got.Samples != 1000 {
		t.Errorf("tailOf(1..1000, 0.999) = %+v, want p99 = 990 of 1000", got)
	}
	if got := tailOf(nil, 0.99); got.Value != 0 || got.Samples != 0 {
		t.Errorf("tailOf(nil) = %+v, want zeros", got)
	}
}

func TestSliceMedianRate(t *testing.T) {
	// Eleven steady seconds and one in which the host stalled: the mean
	// would read 9250, the median slice still reads 10000.
	var slices []slice
	for i := 0; i < 11; i++ {
		slices = append(slices, slice{hits: 10_000, wall: 1})
	}
	slices = append(slices, slice{hits: 1_000, wall: 1})
	if got := sliceMedianRate(slices); got != 10_000 {
		t.Errorf("median slice rate = %v, want 10000", got)
	}
	// Slices of unequal wall time (simdrive) are rates, not counts.
	got := sliceMedianRate([]slice{{hits: 100, wall: 0.5}, {hits: 100, wall: 0.25}, {hits: 100, wall: 1}})
	if got != 200 {
		t.Errorf("median of 200, 400, 100 per second = %v, want 200", got)
	}
	if got := sliceMedianRate(nil); got != 0 {
		t.Errorf("no slices: %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spreadOf(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadOf(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if spreadOf([]float64{7}) != 0 {
		t.Error("a single run has no spread")
	}
}
