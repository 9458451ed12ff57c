package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the number is a handful of outliers, not a tail.
const minBeyond = 10

// percentileLadder lists the percentiles the benchmark ever reports.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// pickPercentile returns the highest rung of the ladder that is no higher
// than want and still has at least minBeyond of n samples beyond it. The
// median is the floor: it is returned even when n is too small for it.
func pickPercentile(n int, want float64) float64 {
	best := percentileLadder[0]
	for _, q := range percentileLadder {
		// The epsilon keeps n*(1-q) from landing just under an integer
		// (10000*(1-0.999) is 9.99999... in floating point).
		if q <= want && float64(n)*(1-q) >= minBeyond-1e-9 {
			best = q
		}
	}
	return best
}

// quantile returns the q-quantile of sorted by nearest rank (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of xs (mean of the two middle values
// for an even count, 0 when empty). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs with the method
// of Python's statistics.quantiles(xs, n=4) (exclusive), which is what
// the acceptance pipeline uses; with fewer than two values both are the
// single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadOf is the interquartile distance of xs as a share of its median
// (0 for fewer than two values or a zero median).
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// slice is one cut of the measurement window: how many calls hit their
// deadline in it and how long it lasted on the wall clock.
type slice struct {
	hits int
	wall float64 // seconds
}

// sliceMedianRate is the median over slices of hits per wall second. One
// stalled second (a GC cycle, a neighbour on the VM) moves a mean; it
// does not move the median slice.
func sliceMedianRate(slices []slice) float64 {
	rates := make([]float64, 0, len(slices))
	for _, s := range slices {
		if s.wall > 0 {
			rates = append(rates, float64(s.hits)/s.wall)
		}
	}
	return median(rates)
}

// tail is one reported percentile with what it was computed from.
type tail struct {
	Value      float64 `json:"value"`      // in the unit of the samples
	Percentile float64 `json:"percentile"` // the rung actually used
	Samples    int     `json:"samples"`    // sample count behind it
}

// tailOf reports the want-percentile of xs under the minBeyond rule:
// when the sample is too small the highest supported rung is reported
// instead, and says so. xs is sorted in place.
func tailOf(xs []float64, want float64) tail {
	sort.Float64s(xs)
	q := pickPercentile(len(xs), want)
	return tail{Value: quantile(xs, q), Percentile: q, Samples: len(xs)}
}
