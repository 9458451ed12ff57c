package rpc

import (
	"fmt"
	"sync"
	"time"
)

// FailoverClient dispatches calls across a primary server and ordered
// backups — the paper's Figure 5a multi-server offloading topology made
// operational: when the primary's circuit breaker opens (or a call burns
// its share of the deadline), the call moves to the next server instead of
// failing the application.
type FailoverClient struct {
	clients []*Client

	mu        sync.Mutex
	failovers int64
}

// FailoverStats aggregates per-server client stats plus failover counts.
type FailoverStats struct {
	PerServer []ClientStats
	// Failovers counts calls served by a non-primary server.
	Failovers int64
}

// DialFailover connects to every address (addrs[0] is the primary). Each
// server gets its own full resilient client, seeded distinctly from
// cfg.Seed so runs stay reproducible. The circuit breaker is enabled by
// default — it is what makes failover fast — unless the caller configured
// one explicitly.
func DialFailover(addrs []string, cfg ClientConfig) (*FailoverClient, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("rpc: no addresses")
	}
	if !cfg.Breaker.Enabled && cfg.Breaker.Threshold == 0 && cfg.Breaker.Cooldown == 0 {
		cfg.Breaker.Enabled = true
	}
	fc := &FailoverClient{clients: make([]*Client, 0, len(addrs))}
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
	clock := fc.clients[0].clock
	start := clock.Now()
	n := len(fc.clients)
	order := make([]int, 0, n)
	var deferred []int
	for i, cl := range fc.clients {
		if cl.BreakerOpen() || cl.KnownDraining() {
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
		fc.clients[idx].CallAsync(method, req, fc.clients[idx].cfg.Priority, share, func(resp []byte, err error) {
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
