// Package obs is the unified observability layer for the MAR stack: a
// zero-dependency metrics registry (lock-free counters and log-bucketed
// histograms, plus callback-backed counters and gauges, all with labels), span-based frame
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
//   - Registry: named counters and histograms with labels, plus
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

import "sync/atomic"

// Counter is a lock-free monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }
