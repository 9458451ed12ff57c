package core

import "time"

// RTT is the one round-trip estimator every holder of an RTT keeps: the
// controller, a multipath wire.Conn, each of its paths and the TCP
// baseline. It smooths samples by RFC 6298 §2: the first sample R sets
// the smoothed RTT to R and the deviation to R/2; each later one moves the
// deviation a quarter and the smoothed RTT an eighth of the way toward it,
// in integer nanoseconds. It also keeps the minimum, the path's base RTT.
// The zero value has seen no sample and reads zero everywhere.
type RTT struct {
	smoothed, dev, min time.Duration
}

// Update folds one sample in. A sample <= 0 is no measurement and changes
// nothing.
func (r *RTT) Update(s time.Duration) {
	if s <= 0 {
		return
	}
	if r.smoothed == 0 {
		r.smoothed, r.dev, r.min = s, s/2, s
		return
	}
	r.min = min(r.min, s)
	diff := r.smoothed - s
	if diff < 0 {
		diff = -diff
	}
	r.dev = (3*r.dev + diff) / 4
	r.smoothed = (7*r.smoothed + s) / 8
}

// Smoothed reports the smoothed RTT (SRTT), zero before the first sample.
func (r *RTT) Smoothed() time.Duration { return r.smoothed }

// Dev reports the mean deviation (RTTVAR), zero before the first sample.
func (r *RTT) Dev() time.Duration { return r.dev }

// Min reports the smallest sample seen, zero before the first.
func (r *RTT) Min() time.Duration { return r.min }
