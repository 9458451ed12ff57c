package trace

import "time"

// Last returns the most recent value, or 0 if the series is empty.
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// Mean returns the arithmetic mean of all values (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Min returns the minimum value (0 for an empty series).
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Min returns the smallest sample (0 when empty).
func (d *DurStats) Min() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	return d.samples[0]
}

// Max returns the largest sample (0 when empty).
func (d *DurStats) Max() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	return d.samples[len(d.samples)-1]
}

// MeanRate reports the average rate in bits/s between time 0 and the last
// recorded sample (0 if nothing was recorded).
func (tp *Throughput) MeanRate() float64 {
	if tp.maxTm == 0 {
		return 0
	}
	return float64(tp.TotalBytes()) * 8 / tp.maxTm.Seconds()
}

// TotalBytes reports the total number of bytes recorded.
func (tp *Throughput) TotalBytes() int64 {
	var sum int64
	for _, b := range tp.bytes {
		sum += b
	}
	return sum
}
