package marsim

import (
	"fmt"
	"strconv"
	"time"

	"marnet/internal/core"
	"marnet/internal/faults"
	"marnet/internal/obs"
	"marnet/internal/phy"
	"marnet/internal/rpc"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

// This file is the multipath robustness scenario (Section VI-D): one
// mobile client with two access links — a local WiFi AP and an LTE
// uplink — streaming recognition calls against an rpc server on one
// socket. The script throws the paper's two wireless failure modes at the
// WiFi link mid-stream: a Gilbert–Elliott burst-loss window (cross-path
// FEC territory) and then a total blackhole (sub-RTT failover territory).
// Three modes run the identical script:
//
//   - MPSingle: the single-path client on WiFi alone — the baseline; it
//     must re-bind across the blackhole.
//   - MPFailover: a wire.DialPaths conn over both links, probing and
//     evacuation only (no FEC, no striping) — the session survives the
//     blackhole with zero resets.
//   - MPFull: cross-path FEC and bulk striping on top — burst-lost frames
//     repair from parity on the other link without end-to-end
//     retransmission.

// MultipathMode selects how the client attaches to its access links.
type MultipathMode int

// Modes, weakest to strongest.
const (
	MPSingle MultipathMode = iota
	MPFailover
	MPFull
)

func (m MultipathMode) String() string {
	switch m {
	case MPSingle:
		return "single-path"
	case MPFailover:
		return "failover"
	case MPFull:
		return "multipath-fec"
	}
	return "invalid"
}

// Multipath scenario script constants. The keepalive is 5x the paths'
// 50 ms probe cadence, so path death is detected and evacuated well before
// dead-peer detection could tear the session down.
const (
	mpKeepalive  = 250 * time.Millisecond
	mpCallPeriod = 50 * time.Millisecond
	mpCallBytes  = 600
	mpDeadline   = 400 * time.Millisecond

	mpGEStart     = 1500 * time.Millisecond
	mpGEEnd       = 3 * time.Second
	mpPartitionAt = 4 * time.Second
	mpHealAt      = 5 * time.Second
	mpHorizon     = 6500 * time.Millisecond

	// Cross-path FEC geometry: every 2 data frames on one link produce 2
	// repair shards on the other, so even a whole group lost to a burst
	// (or the blackhole itself) reconstructs entirely from the surviving
	// link.
	mpFECK = 2
	mpFECM = 2
)

// PathEvent is one path-manager state transition, stamped with the
// virtual time it fired.
type PathEvent struct {
	Path  string        `json:"path"`
	State string        `json:"state"`
	At    time.Duration `json:"at_ns"`
}

// MultipathResult summarizes one mode's run through the scenario.
type MultipathResult struct {
	Mode      string        `json:"mode"`
	Seed      int64         `json:"seed"`
	TraceHash uint64        `json:"trace_hash"`
	SimTime   time.Duration `json:"sim_time_ns"`

	Calls int64 `json:"calls"`
	OKs   int64 `json:"oks"`
	Fails int64 `json:"fails"`

	// Reconnects counts session resets — the tentpole metric: the
	// multipath modes must hold it at zero across the blackhole.
	Reconnects  int64             `json:"reconnects"`
	Transitions []StateTransition `json:"-"`
	PathEvents  []PathEvent       `json:"-"`

	FailoverFrames int64 `json:"failover_frames"` // evacuated off the dead path
	ParitySent     int64 `json:"parity_sent"`
	RepairedUp     int64 `json:"repaired_up"` // server-side (client→server)
	UnrepairedUp   int64 `json:"unrepaired_up"`
	RepairedDown   int64 `json:"repaired_down"` // client-side (server→client)
	UnrepairedDown int64 `json:"unrepaired_down"`

	// WifiDownAt is when the path manager declared the blackholed link
	// dead; CutoverGap is its distance from the partition instant.
	WifiDownAt time.Duration `json:"wifi_down_at_ns"`
	CutoverGap time.Duration `json:"cutover_gap_ns"`
	// MaxOKGap is the longest stretch without a successful call
	// completion between the partition and one second past the heal —
	// the user-visible outage.
	MaxOKGap time.Duration `json:"max_ok_gap_ns"`
	// RepairRate is repaired/(repaired+unrepaired) across both
	// directions over the whole run (teardown drains every open group, so
	// the denominator is complete).
	RepairRate float64 `json:"repair_rate"`
}

// OKRate is OKs/Calls.
func (r *MultipathResult) OKRate() float64 {
	if r.Calls == 0 {
		return 0
	}
	return float64(r.OKs) / float64(r.Calls)
}

// mpSpec scripts one multipath scenario around the shared harness.
type mpSpec struct {
	name   string
	script func(s *Scenario, wifi *Host)
	// partitionAt is the cutover reference: the first wifi-down event
	// after it yields WifiDownAt/CutoverGap.
	partitionAt time.Duration
	// gapFrom/gapTo bound the MaxOKGap measurement window.
	gapFrom, gapTo time.Duration
	horizon        time.Duration
}

// RunMultipath runs the canonical multipath robustness scenario: a
// Gilbert–Elliott burst window on the WiFi uplink (1.5-3 s), then a
// total WiFi blackhole (4-5 s), healed for the final stretch. Same seed,
// same mode: byte-identical trace.
func RunMultipath(seed int64, mode MultipathMode) (*MultipathResult, error) {
	filter := mpFaultsGE(seed)
	return runMP(mpSpec{
		name: "multipath-" + mode.String(),
		script: func(s *Scenario, wifi *Host) {
			s.At(mpGEStart, func() { wifi.SetUplinkFilter(filter) })
			s.At(mpGEEnd, func() { wifi.SetUplinkFilter(nil) })
			s.At(mpPartitionAt, func() { wifi.Partition(true) })
			s.At(mpHealAt, func() { wifi.Partition(false) })
		},
		partitionAt: mpPartitionAt,
		gapFrom:     mpPartitionAt,
		gapTo:       mpHealAt + time.Second,
		horizon:     mpHorizon,
	}, seed, mode)
}

// RunMultipathFlap is the path-flap scenario: the WiFi link blackholes
// for 300 ms three times in a row (a radio stuck at the cell edge). The
// path manager must ride every flap — down, evacuate, probe, revive —
// without a single session reset.
func RunMultipathFlap(seed int64, mode MultipathMode) (*MultipathResult, error) {
	const pulse = 300 * time.Millisecond
	return runMP(mpSpec{
		name: "multipath-flap-" + mode.String(),
		script: func(s *Scenario, wifi *Host) {
			for i := 0; i < 3; i++ {
				at := 2*time.Second + time.Duration(i)*time.Second
				s.At(at, func() { wifi.Partition(true) })
				s.At(at+pulse, func() { wifi.Partition(false) })
			}
		},
		partitionAt: 2 * time.Second,
		gapFrom:     2 * time.Second,
		gapTo:       5 * time.Second,
		horizon:     5500 * time.Millisecond,
	}, seed, mode)
}

// runMP builds the two-radio client, the server, and the frame loop, then
// runs the spec's script against them.
func runMP(spec mpSpec, seed int64, mode MultipathMode) (*MultipathResult, error) {
	s := NewScenario(spec.name, seed)
	res := &MultipathResult{Mode: mode.String(), Seed: seed}

	serverEp := s.Net.NewEndpoint("server", phy.Backbone)
	srv, err := rpc.NewServer("sim", nil,
		func(uint8, []byte) []byte { return []byte("ok") },
		rpc.WithPacketConn(serverEp),
		rpc.WithClock(s.Clock),
		rpc.WithWorkers(4),
		rpc.WithServiceModel(func(uint8, []byte) time.Duration { return 5 * time.Millisecond }))
	if err != nil {
		return nil, err
	}

	wifi := s.Net.NewHost("wifi", phy.WiFiLocal)
	lte := s.Net.NewHost("lte", phy.LTE)

	// The dialer dials fresh paths (fresh sockets on both radios) per
	// dial, exactly like the single-path dialer opens a fresh socket; the
	// multipath modes are expected to never need a second one.
	var dials []*wire.Conn
	dialer := wifi.Dialer(serverEp)
	if mode != MPSingle {
		dialer = func(cfg wire.Config) (*wire.Conn, error) {
			opts := wire.PathOptions{
				Session: uint64(seed)<<8 | uint64(len(dials)+1),
				Stripe:  mode == MPFull,
				OnPathState: func(path string, st wire.PathState) {
					res.PathEvents = append(res.PathEvents, PathEvent{path, st.String(), s.Sim.Now()})
					s.Logf("path %s %s at %s", path, st, stamp(s.Sim.Now()))
				},
			}
			if mode == MPFull {
				opts.FEC = wire.PathFEC{K: mpFECK, M: mpFECM}
			}
			c, err := wire.DialPaths([]wire.PathConf{
				{Name: "wifi", PC: wifi.NewEndpoint()},
				{Name: "lte", PC: lte.NewEndpoint()},
			}, serverEp.UDPAddr(), cfg, opts)
			if err == nil {
				dials = append(dials, c)
			}
			return c, err
		}
	}

	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Clock:     s.Clock,
		Dialer:    dialer,
		Seed:      seed + 1,
		Keepalive: mpKeepalive,
		Retry:     rpc.RetryPolicy{Max: 2},
		OnStateChange: func(st wire.State) {
			res.Transitions = append(res.Transitions, StateTransition{st, s.Sim.Now()})
			s.Logf("session %v at %s", st, stamp(s.Sim.Now()))
		},
	})
	if err != nil {
		return nil, err
	}

	// Frame loop with success timestamps: the outage the user feels is
	// the longest gap between completions, not a failure count.
	req := make([]byte, mpCallBytes)
	var okAt []time.Duration
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		res.Calls++
		cl.CallAsync(methodRecognize, req, core.PrioHighest, mpDeadline, func(_ []byte, err error) {
			if stopped {
				return
			}
			if err == nil {
				res.OKs++
				okAt = append(okAt, s.Sim.Now())
			} else {
				res.Fails++
			}
		})
		s.Sim.Schedule(mpCallPeriod, tick)
	}
	tick()

	spec.script(s, wifi)

	var okPre, okTail int64
	s.At(spec.gapFrom, func() { okPre = res.OKs })
	s.At(spec.horizon-500*time.Millisecond, func() { okTail = res.OKs })

	// The path counters are read from a registry, as a scrape would: each
	// conn's after its Close counted the holes of its open FEC groups.
	reg := obs.NewRegistry()
	s.Defer(func() {
		conns := srv.Conns()
		srv.Close()
		for i, c := range conns {
			c.PublishMetrics(reg, obs.L("side", "server"), obs.L("conn", strconv.Itoa(i)))
			res.RepairedUp += int64(Metric(reg, "mar_wire_path_fec_repaired_total", obs.L("side", "server"), obs.L("conn", strconv.Itoa(i))))
			res.UnrepairedUp += int64(Metric(reg, "mar_wire_path_fec_unrepaired_total", obs.L("side", "server"), obs.L("conn", strconv.Itoa(i))))
		}
	})
	s.Defer(func() {
		res.Reconnects = cl.Stats().Reconnects
		stopped = true
		cl.Close()
		for i, c := range dials {
			ls := []obs.Label{obs.L("side", "client"), obs.L("conn", strconv.Itoa(i))}
			c.PublishMetrics(reg, ls...)
			res.FailoverFrames += int64(Metric(reg, "mar_wire_path_failover_frames_total", ls...))
			res.ParitySent += int64(Metric(reg, "mar_wire_path_parity_sent_total", ls...))
			res.RepairedDown += int64(Metric(reg, "mar_wire_path_fec_repaired_total", ls...))
			res.UnrepairedDown += int64(Metric(reg, "mar_wire_path_fec_unrepaired_total", ls...))
		}
	})
	s.Check(func() error {
		if okPre == 0 {
			return fmt.Errorf("no call succeeded before the fault script began")
		}
		if res.OKs <= okTail {
			return fmt.Errorf("no call succeeded in the final healed stretch")
		}
		return nil
	})

	if err := s.Run(spec.horizon); err != nil {
		return nil, err
	}

	for _, ev := range res.PathEvents {
		if ev.Path == "wifi" && ev.State == "down" && ev.At > spec.partitionAt {
			res.WifiDownAt = ev.At
			res.CutoverGap = ev.At - spec.partitionAt
			break
		}
	}
	res.MaxOKGap = maxGap(okAt, spec.gapFrom, spec.gapTo)
	if rep, unrep := res.RepairedUp+res.RepairedDown, res.UnrepairedUp+res.UnrepairedDown; rep+unrep > 0 {
		res.RepairRate = float64(rep) / float64(rep+unrep)
	}
	res.TraceHash = s.Trace.Hash()
	res.SimTime = s.Sim.Now()
	return res, nil
}

// mpFaultsGE is the WiFi-uplink burst process: ~4-packet bursts at 85%
// loss, stationary loss ≈ 16% — far harsher than the adapt scenarios'
// process, because here the question is not controller stability but
// whether the cross-path parity on the clean LTE link repairs nearly
// every hole the bursts punch.
func mpFaultsGE(seed int64) simnet.PacketFilter {
	return faults.NewLinkFilter(faults.DirConfig{GE: &faults.GilbertElliott{
		PGoodBad: 0.06, PBadGood: 0.25, LossGood: 0, LossBad: 0.85,
	}}, seed+11)
}

// maxGap is the longest interval without a completion inside [from, to],
// counting the edges: a window with no completions at all scores its full
// width.
func maxGap(times []time.Duration, from, to time.Duration) time.Duration {
	prev := from
	var max time.Duration
	for _, t := range times {
		if t < from {
			continue
		}
		if t > to {
			break
		}
		if g := t - prev; g > max {
			max = g
		}
		prev = t
	}
	if g := to - prev; g > max {
		max = g
	}
	return max
}
