package overload

import (
	"sync"
	"time"
)

// Estimator tracks a per-method exponentially weighted moving average of
// service time. The gate uses it for cannot-finish-in-time rejection: a
// request whose remaining budget is smaller than the (safety-scaled)
// estimate is refused before any work is spent on it.
type Estimator struct {
	mu  sync.Mutex
	est map[uint8]time.Duration
}

// ewmaAlpha is the estimator's smoothing factor: heavy enough on history
// to ride out one odd sample, light enough to re-track a method whose cost
// shifts (a recognition database growing).
const ewmaAlpha = 0.2

// NewEstimator builds an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{est: make(map[uint8]time.Duration)}
}

// Observe feeds one measured service time for a method.
func (e *Estimator) Observe(method uint8, d time.Duration) {
	if d < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, ok := e.est[method]
	if !ok {
		e.est[method] = d
		return
	}
	e.est[method] = cur + time.Duration(ewmaAlpha*float64(d-cur))
}

// Estimate returns the current service-time estimate for a method; ok is
// false until the first observation, during which callers should admit and
// learn rather than guess.
func (e *Estimator) Estimate(method uint8) (time.Duration, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.est[method]
	return d, ok
}
