package rpc

import (
	"fmt"
	"sync"
	"time"

	"marnet/internal/wire"
)

// FailoverClient dispatches calls across a primary server and ordered
// backups — the paper's Figure 5a multi-server offloading topology made
// operational: when a server's circuit breaker opens (or a call burns its
// share of the deadline), the call moves to the next server instead of
// failing the application.
type FailoverClient struct {
	clients []*Client
	policy  BreakerPolicy

	mu        sync.Mutex
	breakers  []breaker // one per server
	failovers int64
}

// BreakerPolicy configures a FailoverClient's per-server circuit breaker.
// While a server's breaker is open, calls skip it and fail its share fast
// with ErrBreakerOpen instead of burning their deadline on a server that
// is not answering — which is what lets a FailoverClient switch to a
// backup within one call.
type BreakerPolicy struct {
	// Threshold is how many consecutive call failures open the breaker
	// (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before letting one
	// half-open probe through (default 500 ms).
	Cooldown time.Duration
}

// breaker is one server's consecutive-failure circuit breaker, guarded by
// FailoverClient.mu: closed → open after Threshold failures, open →
// half-open after Cooldown (one probe allowed), half-open → closed on
// probe success, back to open on probe failure.
type breaker struct {
	consec  int
	open    bool
	probing bool
	until   time.Time
}

// FailoverStats aggregates per-server client stats plus failover counts.
type FailoverStats struct {
	PerServer []ClientStats
	// Failovers counts calls served by a non-primary server.
	Failovers int64
}

// DialFailover connects to every address (addrs[0] is the primary). Each
// server gets its own full resilient client, seeded distinctly from
// cfg.Seed so runs stay reproducible, and its own circuit breaker, which
// is what makes failover fast; br's zero fields take the defaults.
func DialFailover(addrs []string, cfg ClientConfig, br BreakerPolicy) (*FailoverClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("rpc: no addresses")
	}
	if br.Threshold <= 0 {
		br.Threshold = 5
	}
	if br.Cooldown <= 0 {
		br.Cooldown = 500 * time.Millisecond
	}
	fc := &FailoverClient{clients: make([]*Client, 0, len(addrs)), policy: br, breakers: make([]breaker, len(addrs))}
	for i, addr := range addrs {
		ccfg := cfg
		ccfg.Seed = cfg.Seed + int64(i)*1000
		cl, err := Dial(addr, ccfg)
		if err != nil {
			fc.Close() //nolint:errcheck // partial dial teardown
			return nil, fmt.Errorf("rpc: dial %q: %w", addr, err)
		}
		fc.clients = append(fc.clients, cl)
	}
	return fc, nil
}

// Call tries the primary first, then each backup in order, splitting the
// remaining deadline evenly across the servers not yet tried. A server
// whose breaker is open fails in microseconds, so its share of the budget
// passes almost intact to the next candidate. Servers that recently
// declared themselves draining (or whose breaker is open) are deferred to
// the end of the order: the health hint steers calls away before they
// fail, but never strands a call when every server looks unhealthy.
// Blocking wrapper over CallAsync — use CallAsync from a simulation's
// event loop.
func (fc *FailoverClient) Call(method uint8, req []byte, deadline time.Duration) ([]byte, error) {
	w := waiterPool.Get().(*waiter)
	fc.CallAsync(method, req, deadline, w.done)
	return w.wait()
}

// CallAsync is Call without blocking: done is invoked exactly once with
// the first successful response or the last error once every candidate
// has been tried or the deadline is spent.
func (fc *FailoverClient) CallAsync(method uint8, req []byte, deadline time.Duration, done func([]byte, error)) {
	// Refused here, before any server's turn: a request no server can take
	// says nothing about a server's health, so no breaker may count it.
	if len(req)+reqHeader > wire.MaxPayload {
		done(nil, fmt.Errorf("%w: %d bytes", ErrTooBig, len(req)))
		return
	}
	clock := fc.clients[0].clock
	start := clock.Now()
	n := len(fc.clients)
	order := make([]int, 0, n)
	var deferred []int
	for i, cl := range fc.clients {
		if fc.cooling(i, start) || cl.KnownDraining() {
			deferred = append(deferred, i)
			continue
		}
		order = append(order, i)
	}
	order = append(order, deferred...)

	var try func(k int, lastErr error)
	try = func(k int, lastErr error) {
		if k >= len(order) {
			if lastErr == nil {
				lastErr = fmt.Errorf("%w after %v", ErrDeadline, deadline)
			}
			done(nil, lastErr)
			return
		}
		remaining := deadline - clock.Since(start)
		if remaining <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("%w after %v", ErrDeadline, deadline)
			}
			done(nil, lastErr)
			return
		}
		share := remaining / time.Duration(len(order)-k)
		idx := order[k]
		if !fc.allow(idx, clock.Now()) {
			try(k+1, ErrBreakerOpen)
			return
		}
		fc.clients[idx].CallAsync(method, req, fc.clients[idx].cfg.Priority, share, func(resp []byte, err error) {
			fc.record(idx, err == nil, clock.Now())
			if err == nil {
				if idx > 0 {
					fc.mu.Lock()
					fc.failovers++
					fc.mu.Unlock()
				}
				done(resp, nil)
				return
			}
			try(k+1, err)
		})
	}
	try(0, nil)
}

// cooling reports whether server i's breaker is open and still in its
// cooldown, so calls should try it last.
func (fc *FailoverClient) cooling(i int, now time.Time) bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.breakers[i].open && now.Before(fc.breakers[i].until)
}

// allow reports whether server i's breaker lets a call through, taking
// the half-open probe's one slot once the cooldown has passed.
func (fc *FailoverClient) allow(i int, now time.Time) bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	b := &fc.breakers[i]
	if !b.open {
		return true
	}
	if now.Before(b.until) || b.probing {
		return false // cooling down, or the one probe is out
	}
	b.probing = true
	return true
}

// record feeds the outcome of a call to server i into its breaker. A
// failure while open (the half-open probe's, or a straggler's) restarts
// the cooldown.
func (fc *FailoverClient) record(i int, ok bool, now time.Time) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	b := &fc.breakers[i]
	if ok {
		*b = breaker{}
		return
	}
	b.consec++
	if b.open || b.consec >= fc.policy.Threshold {
		b.open, b.probing, b.until = true, false, now.Add(fc.policy.Cooldown)
	}
}

// Stats snapshots every server's client counters plus failover totals.
func (fc *FailoverClient) Stats() FailoverStats {
	st := FailoverStats{PerServer: make([]ClientStats, len(fc.clients))}
	for i, cl := range fc.clients {
		st.PerServer[i] = cl.Stats()
	}
	fc.mu.Lock()
	st.Failovers = fc.failovers
	fc.mu.Unlock()
	return st
}

// Close closes every per-server client.
func (fc *FailoverClient) Close() error {
	var first error
	for _, cl := range fc.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
