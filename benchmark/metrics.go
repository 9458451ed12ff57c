package main

// metricDef names one metric. The two tables below are the benchmark's
// contract: BENCHMARK.json lists the same names, units, directions and
// bounds (a test keeps them equal), and README.md explains each row.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it a regression.
	Bound float64
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move on which workload.
	Moves string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is measured with tracing off and emitted by every workload.
// The workloads on which a metric is the one to claim against are marked
// in README.md; on the others it is defined the same way and expected to
// stay flat. The bounds are as tight as this host's run-to-run spread
// allows (README.md lists the spread behind each).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "calls_per_s", Unit: "calls/s", Better: higher, Bound: 0.25},
	{Name: "call_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "deadline_hit_ratio", Unit: "ratio", Better: higher, Bound: 0.02},
	{Name: "top_tier_hit_ratio", Unit: "ratio", Better: higher, Bound: 0.02},
	{Name: "allocs_per_call", Unit: "count", Better: lower, Bound: 0.08},
	{Name: "live_heap_mb", Unit: "MB", Better: lower, Bound: 0.20},
	{Name: "sim_speedup", Unit: "x", Better: higher, Bound: 0.25},
}

// perLayer comes from the traced run: counters read from the layers'
// exported Stats/registry surfaces, timings from the benchmark's own
// spans and from fixed-count micro-loops over each layer's public entry
// points. A layer that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	// rpc — Client.Stats, Server.Stats, the benchmark's span around CallAsync.
	{Name: "rpc.call_issue_ns_p50", Unit: "ns", Better: lower, Moves: "call_p50_us on lockstep; calls_per_s on pipelined"},
	{Name: "rpc.call_p99_us", Unit: "us", Better: lower, Moves: "nothing gated: the tail is reported, the hypervisor owns it; watch it on lossy (loss recovery)"},
	{Name: "rpc.call_p999_us", Unit: "us", Better: lower, Moves: "nothing gated; the slow mode of lockstep's bimodal latency (GC, scheduler)"},
	{Name: "rpc.retries_per_call", Unit: "ratio", Better: lower, Moves: "deadline_hit_ratio on lossy; rpc.call_p99_us there"},
	{Name: "rpc.hedges_per_call", Unit: "ratio", Better: lower, Moves: "rpc.call_p99_us on lossy (0 while hedging is off)"},
	{Name: "rpc.timeouts", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on lossy, simdrive"},
	{Name: "rpc.transport_sheds", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on every workload"},
	{Name: "rpc.server_served", Unit: "count", Better: higher, Moves: "deadline_hit_ratio on storm"},
	{Name: "rpc.server_expired_on_arrival", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on lossy, storm"},
	{Name: "rpc.server_expired_in_queue", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on storm"},
	{Name: "rpc.server_queue_full", Unit: "count", Better: lower, Moves: "deadline_hit_ratio, top_tier_hit_ratio on storm"},
	{Name: "rpc.server_cannot_finish", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on storm"},
	{Name: "rpc.server_shed", Unit: "count", Better: lower, Moves: "deadline_hit_ratio, top_tier_hit_ratio on storm"},

	// wire — micro-loops, Conn.PublishMetrics via Registry.Gather, Session.
	{Name: "wire.frame_encode_ns", Unit: "ns", Better: lower, Moves: "calls_per_s on pipelined"},
	{Name: "wire.frame_encode_allocs", Unit: "count", Better: lower, Moves: "allocs_per_call on pipelined, lockstep"},
	{Name: "wire.frame_decode_ns", Unit: "ns", Better: lower, Moves: "calls_per_s on pipelined"},
	{Name: "wire.send_keyed_ns_per_frame", Unit: "ns", Better: lower, Moves: "calls_per_s on pipelined; call_p50_us on lockstep; none on the simulator"},
	{Name: "wire.send_plain_ns_per_frame", Unit: "ns", Better: lower, Moves: "as send_keyed, without the AEAD"},
	{Name: "wire.aead_ns_per_frame", Unit: "ns", Better: lower, Moves: "calls_per_s on pipelined; sim_speedup on lossy, storm, simdrive"},
	{Name: "wire.send_allocs_per_frame", Unit: "count", Better: lower, Moves: "allocs_per_call on pipelined, lockstep"},
	{Name: "wire.frames_per_call", Unit: "ratio", Better: lower, Moves: "calls_per_s on pipelined; sim_speedup on lossy"},
	{Name: "wire.batch_fill", Unit: "ratio", Better: higher, Moves: "calls_per_s on pipelined only; 1 on lockstep"},
	{Name: "wire.batched_frame_share", Unit: "ratio", Better: higher, Moves: "calls_per_s on pipelined only"},
	{Name: "wire.retx_per_call", Unit: "ratio", Better: lower, Moves: "deadline_hit_ratio, rpc.call_p99_us on lossy"},
	{Name: "wire.duplicates_per_call", Unit: "ratio", Better: lower, Moves: "sim_speedup on lossy"},
	{Name: "wire.stream_shed", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on every workload"},
	{Name: "wire.lost_frames", Unit: "count", Better: lower, Moves: "rpc.call_p99_us on lossy"},
	{Name: "wire.loss_rate_ewma", Unit: "ratio", Better: lower, Moves: "rpc.call_p99_us on lossy"},
	{Name: "wire.srtt_us", Unit: "us", Better: lower, Moves: "call_p50_us on lossy"},
	{Name: "wire.budget_bps", Unit: "bps", Better: higher, Moves: "deadline_hit_ratio, rpc.call_p99_us on lossy"},
	{Name: "wire.reconnects", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on simdrive"},
	{Name: "wire.auth_failures", Unit: "count", Better: lower, Moves: "must be 0; deadline_hit_ratio everywhere"},

	// overload — micro-loop on a stand-alone Gate, Server.Gate().
	{Name: "overload.cycle_ns", Unit: "ns", Better: lower, Moves: "sim_speedup on storm; negligible elsewhere"},
	{Name: "overload.cycle_allocs", Unit: "count", Better: lower, Moves: "allocs_per_call on storm"},
	{Name: "overload.admitted", Unit: "count", Better: higher, Moves: "deadline_hit_ratio on storm"},
	{Name: "overload.completed", Unit: "count", Better: higher, Moves: "deadline_hit_ratio on storm"},
	{Name: "overload.cannot_finish", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on storm"},
	{Name: "overload.expired_on_arrival", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on storm, lossy"},
	{Name: "overload.expired_in_queue", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on storm"},
	{Name: "overload.shed", Unit: "count", Better: lower, Moves: "deadline_hit_ratio, top_tier_hit_ratio on storm"},
	{Name: "overload.queue_full", Unit: "count", Better: lower, Moves: "top_tier_hit_ratio on storm"},
	{Name: "overload.queue_delay_us_p50", Unit: "us", Better: lower, Moves: "call_p50_us on storm"},
	{Name: "overload.capacity_use", Unit: "ratio", Better: higher, Moves: "deadline_hit_ratio on storm"},
	{Name: "overload.estimate_us", Unit: "us", Better: lower, Moves: "overload.cannot_finish, so deadline_hit_ratio on storm"},

	// obs — in-run untraced/traced comparison, budget histograms, micro-loop.
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower, Moves: "nothing untraced; runtime.cpu_us_per_call when tracing is on"},
	{Name: "obs.trace_rate_delta_pct", Unit: "%", Better: lower, Moves: "nothing untraced; calls_per_s when tracing is on"},
	{Name: "obs.budget.queue_us_p50", Unit: "us", Better: lower, Moves: "call_p50_us on storm"},
	{Name: "obs.budget.compute_us_p50", Unit: "us", Better: lower, Moves: "call_p50_us on storm, simdrive"},
	{Name: "obs.budget.net_up_us_p50", Unit: "us", Better: lower, Moves: "call_p50_us on lossy, simdrive"},
	{Name: "obs.budget.net_down_us_p50", Unit: "us", Better: lower, Moves: "call_p50_us on lossy, simdrive"},
	{Name: "obs.budget.serialize_us_p50", Unit: "us", Better: lower, Moves: "call_p50_us on lockstep"},
	{Name: "obs.budget.overhead_us_p50", Unit: "us", Better: lower, Moves: "rpc.call_p99_us on lossy"},
	{Name: "obs.budget.blown", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on every workload"},
	{Name: "obs.budget.sum_err_max", Unit: "ns", Better: lower, Moves: "must be 0: the stages sum to the total"},
	{Name: "obs.span_ns", Unit: "ns", Better: lower, Moves: "obs.trace_overhead_pct"},
	{Name: "obs.spans_dropped", Unit: "count", Better: lower, Moves: "nothing; the in-program span ring is bounded"},

	// simnet — Sim counters, the benchmark's wall clock, micro-loop.
	{Name: "simnet.events_fired", Unit: "count", Better: lower, Moves: "sim_speedup, calls_per_s on lossy, storm, simdrive"},
	{Name: "simnet.events_cancelled", Unit: "count", Better: lower, Moves: "sim_speedup, calls_per_s on lossy, storm, simdrive"},
	{Name: "simnet.wall_ns_per_event", Unit: "ns", Better: lower, Moves: "sim_speedup, calls_per_s on lossy, storm, simdrive"},
	{Name: "simnet.schedule_fire_ns", Unit: "ns", Better: lower, Moves: "sim_speedup, calls_per_s on lossy, storm, simdrive"},
	{Name: "simnet.pending_end", Unit: "count", Better: lower, Moves: "must be 0 after the drain"},

	// marsim — Net.Stats, Trace.Bytes.
	{Name: "marsim.app_tx", Unit: "count", Better: lower, Moves: "sim_speedup on lossy, storm, simdrive"},
	{Name: "marsim.lost_share", Unit: "ratio", Better: lower, Moves: "must match the link: 2 % on lossy; deadline_hit_ratio there"},
	{Name: "marsim.delivered", Unit: "count", Better: higher, Moves: "deadline_hit_ratio on simdrive"},
	{Name: "marsim.drop_closed", Unit: "count", Better: lower, Moves: "deadline_hit_ratio on simdrive"},
	{Name: "marsim.trace_mb", Unit: "MB", Better: lower, Moves: "live_heap_mb, allocs_per_call, sim_speedup on lossy, storm, simdrive"},
	{Name: "marsim.wall_us_per_call", Unit: "us", Better: lower, Moves: "sim_speedup, calls_per_s on lossy, storm, simdrive"},

	// runtime — MemStats and the runtime's pause histogram.
	{Name: "runtime.gc_cycles_per_s", Unit: "1/s", Better: lower, Moves: "rpc.call_p999_us on lockstep; calls_per_s on pipelined"},
	{Name: "runtime.gc_pause_p99_us", Unit: "us", Better: lower, Moves: "rpc.call_p999_us on lockstep"},
	{Name: "runtime.bytes_per_call", Unit: "B", Better: lower, Moves: "runtime.gc_cycles_per_s"},
	{Name: "runtime.cpu_us_per_call", Unit: "us", Better: lower, Moves: "calls_per_s on pipelined, where the CPU is the limit; sim_speedup on the simulator; not gated itself: the host's neighbours move it"},

	// gen — the load generator's own account: validity, not performance.
	{Name: "gen.offered_per_s", Unit: "1/s", Better: higher, Moves: "deadline_hit_ratio on the simulator: the timetable is the denominator"},

	// ledger — how much of the CPU per call the micro-loops explain.
	{Name: "ledger.attributed_share", Unit: "ratio", Better: higher, Moves: "reported on the socket workloads; rpc's own dispatch is not attributed"},
}

// values maps metric name to measured value.
type values map[string]float64
