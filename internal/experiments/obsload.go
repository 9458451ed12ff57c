package experiments

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"marnet/internal/marsim"
	"marnet/internal/obs"
)

// ObsLoadResult pins the cost of the deep-diagnosis layer: the flight
// recorder's per-event cost (enabled, disabled, and as a share of what a
// sealed frame costs on the wire), the SLO engine's per-observation cost,
// the snapshot codec round trip, and the determinism of the recorded
// GE-burst scenario. Marshalled as-is into BENCH_obs.json by `make bench`.
type ObsLoadResult struct {
	Seed       int64 `json:"seed"`
	GOMAXPROCS int   `json:"gomaxprocs"`

	// Microbenchmarks: tight-loop per-op cost of the hooks themselves.
	RecordNsPerOp        float64 `json:"record_ns_per_op"`
	RecordAllocsPerEvent float64 `json:"record_allocs_per_event"`
	DisabledNsPerOp      float64 `json:"disabled_ns_per_op"`
	SLONsPerObserve      float64 `json:"slo_ns_per_observe"`
	SLOAllocsPerObserve  float64 `json:"slo_allocs_per_observe"`

	// The recorder's tax on the wire: one frame through a keyed wire.Dial
	// -> Conn.Send -> mux server loop with the recorder attached (what
	// benchmark/ calls wire.send_keyed_ns_per_frame, here in wall time),
	// the events that frame recorded, and their cost — EventsPerFrame x
	// RecordNsPerOp — as a share of the frame.
	Wire WireTax `json:"wire"`

	// CodecRoundTrip: a frozen snapshot survives Encode→Decode unchanged.
	CodecRoundTrip bool `json:"codec_round_trip"`

	// Flight-scenario acceptance, recorded twice with one seed.
	FlightSnapshots int    `json:"flight_snapshots"`
	FlightStormSeen bool   `json:"flight_storm_seen"`
	FlightSLOFired  bool   `json:"flight_slo_fired"`
	Deterministic   bool   `json:"deterministic"`
	Err             string `json:"err,omitempty"`
}

// WireTax is the flight recorder's cost set against one sealed frame.
type WireTax struct {
	Frames         int     `json:"frames"`
	FrameNs        float64 `json:"frame_ns"`
	EventsPerFrame float64 `json:"events_per_frame"`
	OverheadPct    float64 `json:"overhead_pct"`
}

// Acceptance bounds for the obsload study. The disabled-hook bound is
// generous against CI-runner noise: the real cost is one nil check, a
// fraction of a nanosecond.
const (
	obsMaxOverheadPct   = 2.0
	obsMaxDisabledNs    = 10.0
	obsMaxRecordAllocs  = 0.0
	obsRecordIters      = 1 << 16
	obsTimingRounds     = 5
	obsBenchPackets     = 4000
	obsBenchPayload     = 1000
	obsAllocsRunsRecord = 4096
)

// Pass reports whether every acceptance gate holds.
func (r ObsLoadResult) Pass() bool { return r.Failed() == "" }

// Failed names the first acceptance gate that does not hold, with the
// reading that failed it; it is empty when every gate holds.
func (r ObsLoadResult) Failed() string {
	switch {
	case r.Err != "":
		return "study error: " + r.Err
	case r.RecordAllocsPerEvent > obsMaxRecordAllocs:
		return fmt.Sprintf("recorder allocs/event %.2f > %.0f", r.RecordAllocsPerEvent, obsMaxRecordAllocs)
	case r.DisabledNsPerOp >= obsMaxDisabledNs:
		return fmt.Sprintf("disabled hook %.2f ns/op >= %.0f", r.DisabledNsPerOp, obsMaxDisabledNs)
	case r.Wire.OverheadPct >= obsMaxOverheadPct:
		return fmt.Sprintf("wire overhead %.2f%% >= %.0f%% (%.2f events/frame x %.1f ns over %.0f ns/frame)",
			r.Wire.OverheadPct, obsMaxOverheadPct, r.Wire.EventsPerFrame, r.RecordNsPerOp, r.Wire.FrameNs)
	case !r.CodecRoundTrip:
		return "snapshot codec round trip"
	case !r.Deterministic:
		return "flight scenario not deterministic"
	case r.FlightSnapshots == 0 || !r.FlightStormSeen || !r.FlightSLOFired:
		return fmt.Sprintf("flight scenario: snapshots=%d storm=%v slo=%v", r.FlightSnapshots, r.FlightStormSeen, r.FlightSLOFired)
	}
	return ""
}

// allocsPerRun measures process-wide mallocs per call of f over runs
// iterations, on one P so no concurrent allocator muddies the count (the
// same technique as testing.AllocsPerRun, without importing testing into
// a shipped binary).
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm: one-time lazy work does not count
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}

// nsPerOp times a tight loop of f in obsTimingRounds rounds and reports
// the fastest: a descheduling or an interrupt only ever adds time to a
// round, so the fastest is the one closest to the loop's own cost.
func nsPerOp(iters int, f func()) float64 {
	f() // warm
	best := math.Inf(1)
	for r := 0; r < obsTimingRounds; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(iters))
	}
	return best
}

// disabledNsPerOp times the nil-receiver RecordAt in a loop of its own,
// fastest of obsTimingRounds as nsPerOp does: through nsPerOp's closure
// it would time the indirect call, which costs more than the hook.
func disabledNsPerOp(at time.Time) float64 {
	var off *obs.FlightRecorder
	best := math.Inf(1)
	for r := 0; r < obsTimingRounds; r++ {
		t0 := time.Now()
		for i := 0; i < obsRecordIters; i++ {
			off.RecordAt(at, obs.EvFrameSend, 0, 1, uint32(i), 1242)
		}
		best = min(best, float64(time.Since(t0).Nanoseconds())/obsRecordIters)
	}
	return best
}

// ObsLoad measures the observability layer's own cost and verifies the
// recorded GE-burst scenario end to end. The microbenchmarks and the
// keyed frame loop run on the host (absolute numbers vary; the gates are
// ratios and zeros), the flight scenario runs on virtual time (its
// results are a function of the seed alone).
func ObsLoad(seed int64) ObsLoadResult {
	res := ObsLoadResult{Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	// 1. Recorder hot path: RecordAt on a warmed ring, no clock read —
	// exactly the call the wire fast path makes per frame.
	rec := obs.NewFlightRecorder(obs.RecorderConfig{Session: "obsload"})
	at := time.Now()
	var seq uint32
	recordOnce := func() {
		seq++
		rec.RecordAt(at, obs.EvFrameSend, 0, 1, seq, 1242)
	}
	res.RecordNsPerOp = nsPerOp(obsRecordIters, recordOnce)
	res.RecordAllocsPerEvent = allocsPerRun(obsAllocsRunsRecord, recordOnce)

	// 2. Disabled hook: the nil-receiver path every uninstrumented
	// deployment pays.
	res.DisabledNsPerOp = disabledNsPerOp(at)

	// 3. SLO observation, hits and misses interleaved so the burn
	// evaluation path is exercised too.
	slo := obs.NewSLO(obs.SLOConfig{Name: "obsload"})
	var n int
	observeOnce := func() {
		n++
		slo.Observe(n%16 != 0)
	}
	res.SLONsPerObserve = nsPerOp(obsRecordIters, observeOnce)
	res.SLOAllocsPerObserve = allocsPerRun(obsAllocsRunsRecord, observeOnce)

	// 4. The tax on the wire: the per-event cost above against a whole
	// sealed frame, sender to receiver, with the recorder riding along.
	wrec := obs.NewFlightRecorder(obs.RecorderConfig{Session: "obsload-wire"})
	row, err := keyedLoop(1, 1, obsBenchPackets, obsBenchPayload, wrec)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if row.Delivered < int64(obsBenchPackets) {
		res.Err = fmt.Sprintf("keyed frame loop delivered %d of %d frames", row.Delivered, obsBenchPackets)
		return res
	}
	res.Wire = WireTax{
		Frames: obsBenchPackets, FrameNs: row.NsPerFrame,
		// The one sender's warm-up frames were recorded too.
		EventsPerFrame: float64(wrec.Recorded()) / float64(obsBenchPackets+keyedWarm),
	}
	res.Wire.OverheadPct = 100 * res.Wire.EventsPerFrame * res.RecordNsPerOp / res.Wire.FrameNs

	// 5. Codec round trip on a real frozen snapshot.
	snap := rec.Freeze("obsload")
	if snap != nil {
		enc := snap.Encode()
		dec, derr := obs.DecodeSnapshot(enc)
		res.CodecRoundTrip = derr == nil && dec != nil &&
			bytes.Equal(enc, dec.Encode())
	}

	// 6. The recorded scenario, twice: same seed must produce
	// byte-identical snapshots and trace.
	a, err := marsim.RunFlightGEBurst(seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	b, err := marsim.RunFlightGEBurst(seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.FlightSnapshots = a.Snapshots
	res.FlightStormSeen = a.StormSnapshot >= 0
	res.FlightSLOFired = a.SessionTriggers > 0 && a.GlobalTriggers > 0
	res.Deterministic = a.SnapshotHash == b.SnapshotHash && a.TraceHash == b.TraceHash
	return res
}

// Format renders the study in the repo's table style.
func (r ObsLoadResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Observability overhead (flight recorder + SLO engine, GOMAXPROCS=%d)\n", r.GOMAXPROCS)
	if r.Err != "" {
		fmt.Fprintf(&b, "  study failed: %s\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  %-34s %10s %12s\n", "hook", "ns/op", "allocs/op")
	fmt.Fprintf(&b, "  %-34s %10.1f %12.2f\n", "recorder RecordAt (enabled)", r.RecordNsPerOp, r.RecordAllocsPerEvent)
	fmt.Fprintf(&b, "  %-34s %10.2f %12s\n", "recorder RecordAt (nil recorder)", r.DisabledNsPerOp, "0.00")
	fmt.Fprintf(&b, "  %-34s %10.1f %12.2f\n", "SLO Observe", r.SLONsPerObserve, r.SLOAllocsPerObserve)
	fmt.Fprintf(&b, "  keyed wire frame: %.0f ns/frame, %.2f events/frame x %.1f ns = %.2f%% overhead\n",
		r.Wire.FrameNs, r.Wire.EventsPerFrame, r.RecordNsPerOp, r.Wire.OverheadPct)
	fmt.Fprintf(&b, "  snapshot codec round trip: %v\n", r.CodecRoundTrip)
	fmt.Fprintf(&b, "  flight scenario: snapshots=%d storm=%v slo=%v deterministic=%v\n",
		r.FlightSnapshots, r.FlightStormSeen, r.FlightSLOFired, r.Deterministic)
	fmt.Fprintf(&b, "  acceptance: %v (allocs/event<=%.0f, disabled<%.0f ns, wire overhead<%.0f%%)\n",
		r.Pass(), obsMaxRecordAllocs, obsMaxDisabledNs, obsMaxOverheadPct)
	return b.String()
}
