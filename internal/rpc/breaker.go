package rpc

import (
	"sort"
	"sync"
	"time"
)

// BreakerPolicy configures the client-side circuit breaker. While open,
// calls fail fast with ErrBreakerOpen instead of burning their deadline on
// a server that is not answering — which is what lets a FailoverClient
// switch to a backup within one call.
type BreakerPolicy struct {
	Enabled bool
	// Threshold is how many consecutive call failures open the breaker
	// (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before letting one
	// half-open probe through (default 500 ms).
	Cooldown time.Duration
}

// breaker is a consecutive-failure circuit breaker: closed → open after
// Threshold failures, open → half-open after Cooldown (one probe allowed),
// half-open → closed on probe success, back to open on probe failure.
type breaker struct {
	mu        sync.Mutex
	enabled   bool
	threshold int
	cooldown  time.Duration

	consec  int
	open    bool
	probing bool
	until   time.Time
}

func newBreaker(p BreakerPolicy) *breaker {
	if p.Threshold <= 0 {
		p.Threshold = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 500 * time.Millisecond
	}
	return &breaker{enabled: p.Enabled, threshold: p.Threshold, cooldown: p.Cooldown}
}

// allow reports whether a call may proceed, consuming the half-open probe
// slot when the cooldown has elapsed.
func (b *breaker) allow(now time.Time) bool {
	if !b.enabled {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if now.Before(b.until) {
		return false
	}
	if b.probing {
		return false // one probe at a time
	}
	b.probing = true
	return true
}

// allowPeek is allow without consuming the probe slot.
func (b *breaker) allowPeek(now time.Time) bool {
	if !b.enabled {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open || !now.Before(b.until)
}

// record feeds a call outcome into the state machine.
func (b *breaker) record(ok bool, now time.Time) {
	if !b.enabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.consec = 0
		b.open = false
		b.probing = false
		return
	}
	b.consec++
	if b.open {
		// Failed half-open probe (or a straggler): stay open, restart the
		// cooldown.
		b.until = now.Add(b.cooldown)
		b.probing = false
		return
	}
	if b.consec >= b.threshold {
		b.open = true
		b.until = now.Add(b.cooldown)
		b.probing = false
	}
}

// latencyTracker keeps a ring of recent call latencies for adaptive
// hedging decisions.
type latencyTracker struct {
	mu      sync.Mutex
	samples [128]time.Duration
	n       int // total recorded
}

// minHedgeSamples is how many observations adaptive hedging needs before
// trusting its quantile estimate.
const minHedgeSamples = 16

func newLatencyTracker() *latencyTracker { return &latencyTracker{} }

func (l *latencyTracker) record(d time.Duration) {
	l.mu.Lock()
	l.samples[l.n%len(l.samples)] = d
	l.n++
	l.mu.Unlock()
}

// quantile estimates the q-quantile (e.g. 0.99) of the recent window. The
// second return is false until enough samples exist.
func (l *latencyTracker) quantile(q float64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < minHedgeSamples {
		return 0, false
	}
	size := l.n
	if size > len(l.samples) {
		size = len(l.samples)
	}
	buf := make([]time.Duration, size)
	copy(buf, l.samples[:size])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(q * float64(size-1))
	return buf[idx], true
}
