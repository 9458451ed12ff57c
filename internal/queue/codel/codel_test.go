package codel

import (
	"reflect"
	"testing"
	"time"
)

// sample is one dequeue: at ms, the head has waited sojourn and something
// does or does not wait behind it.
type sample struct {
	ms      int
	sojourn time.Duration
	behind  bool
}

// steady is one dequeue a millisecond from ms from to to, inclusive.
func steady(from, to int, sojourn time.Duration, behind bool) []sample {
	var s []sample
	for ms := from; ms <= to; ms++ {
		s = append(s, sample{ms, sojourn, behind})
	}
	return s
}

func trace(parts ...[]sample) []sample {
	var s []sample
	for _, p := range parts {
		s = append(s, p...)
	}
	return s
}

// TestLawSchedule runs sojourn traces through the law, asking again after
// every drop as a queue does, and checks the instants it drops at: one
// Interval after the sojourn first stood above Target, then each
// Interval/√count after the drop before (on a 1 ms grid, so each due time
// rounds up to the next dequeue).
func TestLawSchedule(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name  string
		trace []sample
		want  []int
	}{
		{"below target", steady(1, 500, Target-ms, true), nil},
		{"nothing behind the head", steady(1, 500, 50*ms, false), nil},
		{
			// 101, +100/√1 = 201, +100/√2 → 272 (271.7), +100/√3 → 330,
			// +100/√4 → 380, +100/√5 → 425, +100/√6 → 465.
			"standing queue", steady(1, 500, 10*ms, true),
			[]int{101, 201, 272, 330, 380, 425, 465},
		},
		{
			// A dequeue late past several due times drops until the
			// cadence catches up with it: 201, 271.7, 329.5, 379.5 ≤ 400.
			"late dequeue catches up",
			[]sample{{1, 10 * ms, true}, {101, 10 * ms, true}, {400, 10 * ms, true}},
			[]int{101, 400, 400, 400, 400},
		},
		{
			// Episode 1 ends at 351 ms with count 4, its next drop due at
			// 379.5. Episode 2 opens at 452, inside 16 intervals of that:
			// count = delta = 4, the entry drop counted (RFC 8289 §5.4), so
			// 452, +100/√4 = 502, +100/√5 → 547, +100/√6 → 588.
			"re-entry resumes the cadence",
			trace(steady(1, 350, 10*ms, true), steady(351, 351, 0, true), steady(352, 600, 10*ms, true)),
			[]int{101, 201, 272, 330, 452, 502, 547, 588},
		},
		{
			// The same episode 1, but the queue stands again only 1.8 s
			// after the last due drop: the cadence restarts from count 1.
			"late re-entry starts afresh",
			trace(steady(1, 350, 10*ms, true), steady(351, 351, 0, true), steady(2100, 2400, 10*ms, true)),
			[]int{101, 201, 272, 330, 2200, 2300, 2371},
		},
		{
			// An episode of one drop leaves delta = 1: nothing to resume.
			"single-drop episode does not resume",
			trace(steady(1, 150, 10*ms, true), steady(151, 151, 0, true), steady(152, 400, 10*ms, true)),
			[]int{101, 252, 352},
		},
	}
	for _, c := range cases {
		var l Law
		var got []int
		for _, s := range c.trace {
			for l.Drop(s.sojourn, time.Duration(s.ms)*ms, s.behind) {
				got = append(got, s.ms)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: drops at %v ms, want %v", c.name, got, c.want)
		}
	}
}
