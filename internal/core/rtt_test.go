package core

import (
	"math/rand"
	"testing"
	"time"
)

// refRTT is the TCP baseline's updateRTT as it was written before core.RTT
// existed (RFC 6298 §2.2-2.3 in integer nanoseconds): the model RTT must
// reproduce value for value.
type refRTT struct{ srtt, rttvar time.Duration }

func (s *refRTT) updateRTT(sample time.Duration) {
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
}

// TestRTTMatchesRFC6298Reference drives RTT and the reference with one
// seeded run of positive samples — a jittery floor, spikes, and runs of
// one repeated value — and compares them after every sample.
func TestRTTMatchesRFC6298Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var r RTT
	var ref refRTT
	lowest := time.Duration(0)
	sample := time.Duration(0)
	for i := 0; i < 10000; i++ {
		switch k := rng.Intn(10); {
		case k == 0: // a spike
			sample = time.Duration(100+rng.Intn(900)) * time.Millisecond
		case k <= 2: // the previous value again
			if sample == 0 {
				sample = time.Millisecond
			}
		default:
			sample = 5*time.Millisecond + time.Duration(rng.Int63n(int64(40*time.Millisecond)))
		}
		if i%1000 == 999 {
			sample = time.Duration(1 + rng.Intn(1000)) // sub-microsecond: the rounding end
		}
		r.Update(sample)
		ref.updateRTT(sample)
		if lowest == 0 || sample < lowest {
			lowest = sample
		}
		if r.Smoothed() != ref.srtt || r.Dev() != ref.rttvar || r.Min() != lowest {
			t.Fatalf("sample %d (%v): smoothed %v dev %v min %v, want %v %v %v",
				i, sample, r.Smoothed(), r.Dev(), r.Min(), ref.srtt, ref.rttvar, lowest)
		}
	}
}

func TestRTTEdges(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name              string
		samples           []time.Duration
		smoothed, dev, lo time.Duration
	}{
		{"no sample", nil, 0, 0, 0},
		{"first sample: R, R/2, R", []time.Duration{30 * ms}, 30 * ms, 15 * ms, 30 * ms},
		{"zero before any sample changes nothing", []time.Duration{0}, 0, 0, 0},
		{"negative before any sample changes nothing", []time.Duration{-ms}, 0, 0, 0},
		{"zero after a sample changes nothing", []time.Duration{30 * ms, 0}, 30 * ms, 15 * ms, 30 * ms},
		{"negative after a sample changes nothing", []time.Duration{30 * ms, -5 * ms}, 30 * ms, 15 * ms, 30 * ms},
		{"second sample", []time.Duration{30 * ms, 14 * ms}, 28 * ms, 15250 * time.Microsecond, 14 * ms},
	} {
		var r RTT
		for _, s := range tc.samples {
			r.Update(s)
		}
		if r.Smoothed() != tc.smoothed || r.Dev() != tc.dev || r.Min() != tc.lo {
			t.Errorf("%s: smoothed %v dev %v min %v, want %v %v %v", tc.name, r.Smoothed(), r.Dev(), r.Min(), tc.smoothed, tc.dev, tc.lo)
		}
	}
}
