// Package trace provides lightweight measurement primitives used by the
// simulator and the experiment harness: counters, time series, duration
// statistics, and throughput samplers.
//
// All types are deterministic and allocation-conscious; none of them spawn
// goroutines, so they are safe to use inside the single-threaded simulator
// event loop.
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series is an append-only time series of (t, v) samples.
type Series struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// NewSeries returns an empty series with the given name.
func NewSeries(name string) *Series {
	return &Series{Name: name}
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// At returns the value of the most recent sample at or before t, or 0 if no
// sample precedes t.
func (s *Series) At(t time.Duration) float64 {
	// Binary search for the first sample strictly after t.
	i := sort.Search(len(s.Times), func(i int) bool { return s.Times[i] > t })
	if i == 0 {
		return 0
	}
	return s.Values[i-1]
}

// Max returns the maximum value (0 for an empty series).
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Window returns the mean of values with from <= t < to.
func (s *Series) Window(from, to time.Duration) float64 {
	var sum float64
	var n int
	for i, t := range s.Times {
		if t >= from && t < to {
			sum += s.Values[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// DurStats accumulates duration observations and reports order statistics.
type DurStats struct {
	samples []time.Duration
	sorted  bool
}

// Observe records one duration sample.
func (d *DurStats) Observe(v time.Duration) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Count reports the number of samples observed.
func (d *DurStats) Count() int { return len(d.samples) }

// Mean returns the mean of all samples (0 when empty).
func (d *DurStats) Mean() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d.samples {
		sum += v
	}
	return sum / time.Duration(len(d.samples))
}

// Percentile returns the p-th percentile using the nearest-rank method.
// It returns 0 when the set is empty; p is clamped into [0, 100], with
// NaN treated as 0, so out-of-range requests degrade to Min/Max instead
// of panicking.
func (d *DurStats) Percentile(p float64) time.Duration {
	n := len(d.samples)
	if n == 0 {
		return 0
	}
	d.sort()
	if math.IsNaN(p) || p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[n-1]
	}
	// Multiply before dividing: p/100 is inexact for most p, and e.g.
	// 7.0/100*100 = 7.000000000000001 would round the rank up a slot,
	// while 7*100/100 stays exact. Clamp both ends anyway so float
	// rounding near the boundaries can never index out of range.
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.samples[rank-1]
}

func (d *DurStats) sort() {
	if d.sorted {
		return
	}
	sort.Slice(d.samples, func(i, j int) bool { return d.samples[i] < d.samples[j] })
	d.sorted = true
}

// Throughput accumulates byte deliveries into fixed-width bins and reports
// per-bin rates in bits per second. It is the measurement device behind the
// Figure 3 goodput curves.
type Throughput struct {
	Bin   time.Duration
	bytes map[int64]int64
	maxTm time.Duration
}

// NewThroughput returns a sampler with the given bin width.
func NewThroughput(bin time.Duration) *Throughput {
	if bin <= 0 {
		bin = time.Second
	}
	return &Throughput{Bin: bin, bytes: make(map[int64]int64)}
}

// Record adds n bytes delivered at time t.
func (tp *Throughput) Record(t time.Duration, n int) {
	tp.bytes[int64(t/tp.Bin)] += int64(n)
	if t > tp.maxTm {
		tp.maxTm = t
	}
}

// Rate returns the delivery rate in bits/s for the bin containing t.
func (tp *Throughput) Rate(t time.Duration) float64 {
	b := tp.bytes[int64(t/tp.Bin)]
	return float64(b) * 8 / tp.Bin.Seconds()
}

// Series converts the sampler into a Series of bin-rates in bits/s, covering
// every bin from 0 through the last recorded bin (empty bins report 0).
func (tp *Throughput) Series(name string) *Series {
	s := NewSeries(name)
	last := int64(tp.maxTm / tp.Bin)
	for i := int64(0); i <= last; i++ {
		s.Add(time.Duration(i)*tp.Bin, float64(tp.bytes[i])*8/tp.Bin.Seconds())
	}
	return s
}

// Mbps formats a bits/s value as "X.XX Mb/s".
func Mbps(bps float64) string {
	return fmt.Sprintf("%.2f Mb/s", bps/1e6)
}
