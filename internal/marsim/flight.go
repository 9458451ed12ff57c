package marsim

import (
	"fmt"
	"time"

	"marnet/internal/adapt"
	"marnet/internal/faults"
	"marnet/internal/obs"
	"marnet/internal/rpc"
	"marnet/internal/simnet"
)

// This file is the deep-diagnosis acceptance scenario: the adaptive
// client runs through a Gilbert–Elliott loss burst with a flight
// recorder and the SLO burn-rate engine armed, entirely on virtual
// time. The burst produces a retransmit storm, the storm blows frame
// budgets, the SLO engine detects hit-rate erosion, and the resulting
// snapshots must show the whole causal chain — retransmits, then the
// ladder downgrade — byte-identically for the same seed.

// Flight scenario tuning: windows are compressed to the simulated
// phases (the burst lasts ten seconds, not ten minutes).
const (
	flightWindow   = 5 * time.Second
	flightCooldown = 2 * time.Second
	flightSnapsMax = 16

	flightSLOSlot    = 250 * time.Millisecond
	flightSLOFast    = 2 * time.Second
	flightSLOSlow    = 8 * time.Second
	flightSLOObj     = 0.9
	flightSLOFastBrn = 3.0
	flightSLOSlowBrn = 1.5
	flightSLOMinN    = 8
)

// FlightResult summarizes one recorded GE-burst run.
type FlightResult struct {
	Seed   int64 `json:"seed"`
	Frames int64 `json:"frames"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`

	Events    uint64   `json:"events"`    // events the recorder ever saw
	Snapshots int      `json:"snapshots"` // frozen captures
	Reasons   []string `json:"reasons"`   // freeze reasons, in order

	SessionTriggers int64 `json:"session_slo_triggers"`
	GlobalTriggers  int64 `json:"global_slo_triggers"`

	// StormSnapshot indexes the first snapshot whose timeline shows the
	// causal chain retransmit storm → ladder downgrade (-1 if none did).
	StormSnapshot int `json:"storm_snapshot"`

	// SnapshotHash folds every snapshot's binary encoding into one FNV-1a
	// value: equal hashes mean byte-identical captures.
	SnapshotHash uint64        `json:"snapshot_hash"`
	TraceHash    uint64        `json:"trace_hash"`
	SimTime      time.Duration `json:"sim_time_ns"`
}

// stormIndex finds the first snapshot showing at least `minRetx`
// retransmits followed (in event order) by a ladder downgrade.
func stormIndex(snaps []*obs.Snapshot, minRetx int) int {
	for i, sn := range snaps {
		retx := 0
		for _, e := range sn.Events {
			switch e.Kind {
			case obs.EvFrameRetransmit:
				retx++
			case obs.EvAdaptMove:
				from, to := adapt.Mode(e.A>>8), adapt.Mode(e.A&0xff)
				if to > from && retx >= minRetx {
					return i
				}
			}
		}
	}
	return -1
}

// hashSnapshots folds the binary encodings into one FNV-1a hash.
func hashSnapshots(snaps []*obs.Snapshot) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, sn := range snaps {
		for _, b := range sn.Encode() {
			h = (h ^ uint64(b)) * prime
		}
	}
	return h
}

// RunFlightGEBurst replays the RunAdaptGEBurst shape — Gilbert–Elliott
// burst loss over the uplink from t=3 s to t=13 s of a 16 s run — with
// the full diagnosis layer armed: flight-recorder hooks in the wire
// datapath, the adapt controller and the rpc budget attribution, plus a
// per-session SLO chained into a global one. Snapshots freeze on blown
// budgets and on SLO burn, and every capture's timeline is written into
// the scenario trace, so the run is reproducible end to end.
func RunFlightGEBurst(seed int64) (*FlightResult, error) {
	s := NewScenario("flight-ge-burst", seed)
	srv, serverEp, err := adaptServer(s, 2)
	if err != nil {
		return nil, err
	}

	rec := obs.NewFlightRecorder(obs.RecorderConfig{
		Session:      "mobile",
		Window:       flightWindow,
		Cooldown:     flightCooldown,
		MaxSnapshots: flightSnapsMax,
		Clock:        s.Clock,
		OnFreeze: func(sn *obs.Snapshot) {
			for _, line := range sn.Timeline() {
				s.Logf("%s", line)
			}
		},
	})
	global := obs.NewSLO(obs.SLOConfig{
		Name: "global", Objective: flightSLOObj,
		Slot: flightSLOSlot, FastWindow: flightSLOFast, SlowWindow: flightSLOSlow,
		FastBurn: flightSLOFastBrn, SlowBurn: flightSLOSlowBrn,
		MinSamples: flightSLOMinN, Clock: s.Clock,
	})
	session := obs.NewSLO(obs.SLOConfig{
		Name: "session-mobile", Objective: flightSLOObj,
		Slot: flightSLOSlot, FastWindow: flightSLOFast, SlowWindow: flightSLOSlow,
		FastBurn: flightSLOFastBrn, SlowBurn: flightSLOSlowBrn,
		MinSamples: flightSLOMinN, Clock: s.Clock,
		Parent: global,
		OnTrigger: func(t obs.SLOTrigger) {
			s.Logf("%s", t.String())
			rec.Record(obs.EvSLOTrigger, 0, 0,
				uint32(t.FastBurn*1000), uint64(t.SlowBurn*1000))
			rec.Freeze("slo-burn")
		},
	})

	host := s.Net.NewHost("mobile", adaptEdgeProfile())
	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Clock:    s.Clock,
		Dialer:   host.Dialer(serverEp),
		Seed:     seed + 1,
		Retry:    rpc.RetryPolicy{Max: 2},
		Tracer:   obs.NewTracer(adaptBudgetSpans, seed+2),
		Budget:   adaptBudget,
		Recorder: rec,
		SLO:      session,
	})
	if err != nil {
		return nil, err
	}

	cfg := adaptCtrlConfig()
	cfg.Recorder = rec
	const length = 16 * time.Second
	run := startAdaptRun(s, cl, PolicyAdaptive, cfg, length)

	filter := faultsFlightGE(seed)
	s.At(3*time.Second, func() { host.SetUplinkFilter(filter) })
	s.At(13*time.Second, func() { host.SetUplinkFilter(nil) })

	var res *FlightResult
	s.Defer(func() { srv.Close() })
	s.Defer(func() {
		snaps := rec.Snapshots()
		res = &FlightResult{
			Seed:            seed,
			Frames:          run.frames,
			Hits:            run.hits,
			Misses:          run.misses,
			Events:          rec.Recorded(),
			Snapshots:       len(snaps),
			SessionTriggers: session.Triggers(),
			GlobalTriggers:  global.Triggers(),
			StormSnapshot:   stormIndex(snaps, 1),
			SnapshotHash:    hashSnapshots(snaps),
		}
		for _, sn := range snaps {
			res.Reasons = append(res.Reasons, sn.Reason)
		}
		run.stop()
		cl.Close()
	})
	if err := s.Run(length + adaptDeadline + 100*time.Millisecond); err != nil {
		return nil, err
	}
	res.TraceHash = s.Trace.Hash()
	res.SimTime = s.Sim.Now()
	return res, nil
}

// faultsFlightGE is a harsher burst process than the adapt scenario's:
// bad states average ~10 packets at 80% loss and recur often enough
// that the miss EWMA crosses the degrade threshold — the point of this
// scenario is to capture a downgrade, not to ride the burst out.
func faultsFlightGE(seed int64) simnet.PacketFilter {
	return faults.NewLinkFilter(faults.DirConfig{GE: &faults.GilbertElliott{
		PGoodBad: 0.08, PBadGood: 0.1, LossGood: 0, LossBad: 0.8,
	}}, seed+7)
}

// String renders the one-line summary marbench prints.
func (r *FlightResult) String() string {
	return fmt.Sprintf("flight-ge-burst seed=%d frames=%d hits=%d misses=%d events=%d snaps=%d storm@%d slo=%d/%d hash=%016x",
		r.Seed, r.Frames, r.Hits, r.Misses, r.Events, r.Snapshots,
		r.StormSnapshot, r.SessionTriggers, r.GlobalTriggers, r.SnapshotHash)
}
