package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram accumulates non-negative int64 observations (durations are
// recorded in nanoseconds) into log-spaced buckets: four sub-buckets per
// power of two, bounding the relative quantile error at ~12.5%. All
// operations are lock-free; Observe is a single atomic add plus a CAS for
// the exact maximum.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Four sub-buckets for each of the 64 octaves. Buckets 0..3 hold the exact
// small values 0..3; octave k >= 2 maps to buckets 4k..4k+3.
const numBuckets = 256

func bucketOf(v int64) int {
	if v < 4 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1         // 2^k <= v < 2^(k+1), k >= 2
	sub := int((uint64(v) >> (k - 2)) & 3) // two significant bits below the top
	return 4*k + sub
}

// bucketMid returns a representative value for bucket b (the midpoint of
// its range).
func bucketMid(b int) int64 {
	if b < 4 {
		return int64(b)
	}
	k := b / 4
	sub := int64(b % 4)
	lo := int64(1)<<k + sub<<(k-2)
	width := int64(1) << (k - 2)
	return lo + width/2
}

// Observe records one value (negatives clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistSnapshot is a consistent-enough copy of a histogram for export: the
// buckets are loaded one by one, so observations racing the snapshot may
// be partially visible, which is fine for monitoring.
type HistSnapshot struct {
	Buckets [numBuckets]int64
	Count   int64
	Sum     int64
	Max     int64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the snapshot by
// nearest rank over the buckets. The estimate is capped at the exact
// maximum; an empty snapshot reports 0.
func (s HistSnapshot) Quantile(q float64) int64 {
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for b, n := range s.Buckets {
		cum += n
		if cum >= rank {
			v := bucketMid(b)
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}
