// Package obs is the unified observability layer for the MAR stack: a
// zero-dependency metrics registry (lock-free counters, gauges and
// log-bucketed histograms, all with label support), span-based frame
// tracing whose context rides the ARTP wire header, and motion-to-photon
// budget attribution against the paper's 75 ms end-to-end bound
// (Section III-B, Table II).
//
// The paper's central quantitative claim is a hard latency budget spent
// across capture, uplink, server queueing and compute, and downlink. After
// the chaos (PR 1) and overload (PR 2) layers, the stack can shed,
// degrade, retry, hedge and fail over — none of which can be operated
// blind. This package is the one pipe every layer reports through:
//
//   - Registry: named counters/gauges/histograms with labels, plus
//     CounterFunc/GaugeFunc adapters that publish the pre-existing
//     snapshot structs (rpc.ServerStats, overload.GateStats, ...) without
//     rewriting their hot paths.
//   - Tracer/Span: per-frame spans stitched across process boundaries by
//     the trace ID + parent span ID carried in wire frame headers with
//     flagTraced set.
//     Tracing off costs nothing: the disabled fast path allocates nothing
//     and every Span method is nil-safe.
//   - BudgetReport/BudgetTracker: per-frame attribution of the 75 ms
//     budget to queue wait, server compute, network (SRTT/2 each way),
//     serialization/pacing, and retry/hedge overhead, with counters for
//     budget-blown frames by dominant stage.
//   - HTTP export: Prometheus text format on /metrics, expvar-style JSON
//     on /metrics.json, and /healthz backed by the serving path's health
//     probe.
//
// Everything here is safe for concurrent use unless documented otherwise.
package obs

import (
	"math"
	"sync/atomic"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Counter is a lock-free monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add adjusts the gauge by delta using a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Value reports the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }
