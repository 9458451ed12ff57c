package marsim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"marnet/internal/adapt"
	"marnet/internal/core"
	"marnet/internal/faults"
	"marnet/internal/obs"
	"marnet/internal/phy"
	"marnet/internal/rpc"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

// This file runs the adaptive degradation controller against the REAL
// stack — rpc over wire sessions over simulated radio links — and pits it
// head-to-head against every fixed rung of the ladder under the paper's
// failure modes: an uplink congestion ramp, a vertical handover that
// blows the retransmit-affordability bound, and Gilbert–Elliott burst
// loss. Same seed, same decision trace, byte-identical results.

// AdaptPolicyKind selects which shipping policy a run drives.
type AdaptPolicyKind int

const (
	// PolicyAdaptive is the full closed-loop controller.
	PolicyAdaptive AdaptPolicyKind = iota
	// PolicyAdaptiveNoHyst is the controller with every oscillation guard
	// stripped — the strawman the hysteresis test beats.
	PolicyAdaptiveNoHyst
	// PolicyFixedFull always ships full frames (the static baseline).
	PolicyFixedFull
	// PolicyFixedFeatures always ships extracted features.
	PolicyFixedFeatures
	// PolicyFixedTracking always runs local tracking with sparse anchors.
	PolicyFixedTracking
)

func (k AdaptPolicyKind) String() string {
	switch k {
	case PolicyAdaptive:
		return "adaptive"
	case PolicyAdaptiveNoHyst:
		return "adaptive-nohyst"
	case PolicyFixedFull:
		return "fixed-full"
	case PolicyFixedFeatures:
		return "fixed-features"
	case PolicyFixedTracking:
		return "fixed-tracking"
	}
	return "invalid"
}

// Scenario constants. Payload sizes are scaled-down stand-ins for the
// paper's 20 kB frames / 6 kB feature sets: the wire caps a single rpc
// payload at ~1.18 kB, so a "full frame" ships as three chunks and the
// byte *ratios* between ladder rungs (and the FEC expansion on top) are
// preserved rather than the absolute sizes.
const (
	adaptFPS         = 20
	adaptFramePeriod = time.Second / adaptFPS
	adaptBudget      = 75 * time.Millisecond // motion-to-photon deadline
	adaptDeadline    = 300 * time.Millisecond
	// Anchors correct tracking drift rather than chase the photon budget,
	// so they get a laxer deadline: a fix that arrives half a second late
	// still re-registers the world.
	anchorDeadline = 600 * time.Millisecond
	adaptCtrlTick  = 100 * time.Millisecond
	// Tracer span capacity for the budget-attribution feed; sized past one
	// control tick's worth of chunked calls so reports never starve.
	adaptBudgetSpans = 256

	fullChunks        = 3
	fullChunkBytes    = 600
	featureChunkBytes = 240
	anchorEvery       = 12 // tracking mode ships an anchor every 12th frame

	// Local-tracking drift model: error in pixels, reset by any server fix.
	baseErr       = 2.0
	driftPerFrame = 0.8
	errBound      = 8.0 // a non-offloaded frame "hits" while under this
	errCap        = 60.0
)

// adaptEdgeProfile is the MEC-class radio every adapt scenario starts on:
// close (6 ms one-way) but uplink-constrained, so the degradation ladder
// — not raw propagation — decides who makes the 75 ms budget.
func adaptEdgeProfile() phy.Profile {
	return phy.Profile{
		Name: "edge-radio", TheoreticalDown: 8e6,
		Down: 4e6, Up: 800e3, OneWay: 6 * time.Millisecond,
		Jitter: time.Millisecond,
	}
}

// adaptCellProfile is the handover target: same capacity, 55 ms away —
// past the §VI-C bound, where a retransmit can no longer fit the budget.
func adaptCellProfile() phy.Profile {
	p := adaptEdgeProfile()
	p.Name = "cell-radio"
	p.OneWay = 55 * time.Millisecond
	p.Jitter = 2 * time.Millisecond
	return p
}

// AdaptResult summarizes one policy's run through an adapt scenario.
type AdaptResult struct {
	Kind    string `json:"kind"`
	Seed    int64  `json:"seed"`
	Frames  int64  `json:"frames"`   // frames the camera produced
	Hits    int64  `json:"hits"`     // frames inside the 75 ms budget
	Misses  int64  `json:"misses"`   // frames outside it
	Offload int64  `json:"offloads"` // frames that shipped something
	Skipped int64  `json:"skipped"`  // frames that shipped nothing
	UpBytes int64  `json:"up_bytes"` // application payload bytes shipped

	RMSError float64 `json:"rms_error_px"` // RMS of the drift model

	Switches     int64         `json:"mode_switches"` // controller runs only
	Ticks        int64         `json:"ctrl_ticks"`
	RetxFlips    int64         `json:"retx_flips"` // ARQ<->FEC transitions
	FinalMode    string        `json:"final_mode"`
	DecisionHash uint64        `json:"decision_hash"`  // 0 for fixed policies
	WireLoss     float64       `json:"wire_loss"`      // session loss EWMA at teardown
	PeakWireLoss float64       `json:"peak_wire_loss"` // max loss EWMA seen during the run
	TraceHash    uint64        `json:"trace_hash"`
	SimTime      time.Duration `json:"sim_time_ns"`

	// Decisions is the controller's retained decision trace (nil for fixed
	// policies) — tests assert phase behavior against it.
	Decisions []adapt.Decision `json:"-"`
}

// HitRate is Hits/Frames.
func (r *AdaptResult) HitRate() float64 {
	if r.Frames == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Frames)
}

// adaptRun is the client-side harness: the 20 FPS frame loop, the drift
// model, the per-tick signal aggregation, and the policy source (live
// controller or fixed rung).
type adaptRun struct {
	s    *Scenario
	cl   *rpc.Client
	conn *wire.Conn        // the client's: SRTT and loss rate
	ctrl *adapt.Controller // nil for fixed policies
	pol  adapt.Policy      // policy in force for the next frame

	frames   int64
	stopAt   time.Duration
	stopped  bool
	err      float64
	sumSq    float64
	hits     int64
	misses   int64
	offloads int64
	skipped  int64
	upBytes  int64
	peakLoss float64

	// Aggregated since the previous control tick.
	tickFrames, tickMisses, tickRejects, tickDegraded int
	lastDegraded                                      int64
	// Budget-report cursor: reports past this count are new this tick.
	lastBudgetFrames int64
}

// netShareTick averages the network share of the budget reports that
// landed since the previous control tick.
func (r *adaptRun) netShareTick() float64 {
	bt := r.cl.BudgetTracker()
	if bt == nil {
		return 0
	}
	frames := bt.Frames()
	fresh := frames - r.lastBudgetFrames
	r.lastBudgetFrames = frames
	if fresh <= 0 {
		return 0
	}
	reports := bt.Reports()
	if fresh > int64(len(reports)) {
		fresh = int64(len(reports)) // ring evicted some; use what survives
	}
	var share float64
	n := 0
	for _, rep := range reports[int64(len(reports))-fresh:] {
		if rep.Budget <= 0 {
			continue
		}
		// Network time as a fraction of the frame budget (not of the
		// call's own total): an edge round trip with near-zero compute is
		// structurally network-dominated, and judging it against its own
		// total would signal pressure on a perfectly healthy path.
		share += float64(rep.NetUp+rep.NetDown) / float64(rep.Budget)
		n++
	}
	if n == 0 {
		return 0
	}
	return share / float64(n)
}

func startAdaptRun(s *Scenario, cl *rpc.Client, kind AdaptPolicyKind, cfg adapt.Config, until time.Duration) *adaptRun {
	r := &adaptRun{s: s, cl: cl, conn: cl.Conn(), err: baseErr, stopAt: until}
	switch kind {
	case PolicyAdaptive:
		r.ctrl = adapt.NewController(cfg)
	case PolicyAdaptiveNoHyst:
		cfg.NoHysteresis = true
		r.ctrl = adapt.NewController(cfg)
	case PolicyFixedFull:
		r.pol = adapt.Policy{Mode: adapt.ModeFull, Retransmit: true}
	case PolicyFixedFeatures:
		r.pol = adapt.Policy{Mode: adapt.ModeFeatures, Retransmit: true}
	case PolicyFixedTracking:
		r.pol = adapt.Policy{Mode: adapt.ModeTracking, Retransmit: true}
	}
	if r.ctrl != nil {
		r.pol = r.ctrl.Policy()
		r.ctrlTick()
	}
	r.frameTick()
	return r
}

// ctrlTick gathers one control interval's signals and asks the
// controller for the next policy.
func (r *adaptRun) ctrlTick() {
	if r.stopped {
		return
	}
	// NetShare comes from live obs.BudgetReport stage attribution: the
	// mean (NetUp+NetDown)/Total over the calls that finished since the
	// previous tick. Deriving it from SRTT instead would go stale the
	// moment a degraded mode stops shipping and wedge the controller at
	// the bottom of the ladder; with no new reports this tick it reads 0,
	// which disables the high-net-share floor rather than fabricating one.
	sig := adapt.Signals{
		SRTT:       r.conn.SRTT(),
		Loss:       r.conn.LossRate(),
		Frames:     r.tickFrames,
		Misses:     r.tickMisses,
		Rejections: r.tickRejects,
		Degraded:   r.tickDegraded,
		NetShare:   r.netShareTick(),
	}
	r.tickFrames, r.tickMisses, r.tickRejects, r.tickDegraded = 0, 0, 0, 0
	r.pol = r.ctrl.Tick(r.s.Sim.Now(), sig)
	r.s.Sim.Schedule(adaptCtrlTick, r.ctrlTick)
}

// frameTick is one camera frame: apply drift, ship per the policy in
// force, score the frame.
func (r *adaptRun) frameTick() {
	if r.stopped || r.s.Sim.Now() >= r.stopAt {
		return
	}
	frame := r.frames
	r.frames++
	// The loss EWMA decays back to zero on a clean tail, so remember the
	// worst it got: that's what a burst-loss scenario asserts against.
	if lr := r.conn.LossRate(); lr > r.peakLoss {
		r.peakLoss = lr
	}
	r.err = math.Min(r.err+driftPerFrame, errCap)
	r.sumSq += r.err * r.err

	pol := r.pol
	switch pol.Mode {
	case adapt.ModeFull:
		r.offloads++
		r.shipFrame(pol, uint32(frame), fullChunks, fullChunkBytes)
	case adapt.ModeFeatures:
		r.offloads++
		r.shipFrame(pol, uint32(frame), 1, featureChunkBytes)
	case adapt.ModeTracking:
		// Tracking frames display from local tracking — the drift bound
		// decides the hit. Every anchorEvery-th frame additionally ships a
		// sparse anchor whose *completion* (even past the display budget)
		// corrects drift and tells the controller the path works.
		if frame%anchorEvery == 0 {
			r.offloads++
			r.shipAnchor(pol, uint32(frame))
		}
		r.scoreDisplay(r.err <= errBound)
	case adapt.ModeSkip:
		// Nothing ships: the frame lives or dies on accumulated drift.
		r.skipped++
		r.scoreDisplay(r.err <= errBound)
	}
	r.s.Sim.Schedule(adaptFramePeriod, r.frameTick)
}

// shipFrame issues one offload as `chunks` parallel calls, each carrying
// the policy header plus the (FEC-expanded) payload share. The frame
// hits only if every chunk lands inside the budget; any completed fix —
// even a late one — still resets tracking drift.
func (r *adaptRun) shipFrame(pol adapt.Policy, tick uint32, chunks, size int) {
	t0 := r.s.Clock.Now()
	remaining := chunks
	var worst time.Duration
	failed, rejected := false, false
	for i := 0; i < chunks; i++ {
		r.issueChunk(pol, tick, size, adaptDeadline, func(err error) {
			if lat := r.s.Clock.Since(t0); lat > worst {
				worst = lat
			}
			if err != nil {
				failed = true
				rejected = rejected || isRejection(err)
			}
			if remaining--; remaining == 0 {
				if !failed {
					r.err = baseErr // the fix corrects local tracking even if late
				}
				hit := !failed && worst <= adaptBudget
				r.scoreDisplay(hit)
				r.feedCtrl(pol.Mode, hit, rejected)
			}
		})
	}
}

// shipAnchor issues one tracking anchor. Success means the fix arrived
// inside the call deadline — anchors are drift correctors, not displayed
// frames, so the controller hears "path delivers fixes", not "fix beat
// the photon budget".
func (r *adaptRun) shipAnchor(pol adapt.Policy, tick uint32) {
	r.issueChunk(pol, tick, featureChunkBytes, anchorDeadline, func(err error) {
		if err == nil {
			r.err = baseErr
		}
		r.feedCtrl(pol.Mode, err == nil, err != nil && isRejection(err))
	})
}

// issueChunk sends one policy-stamped call of `size` payload bytes
// (FEC-expanded per the policy) and hands the outcome to done.
func (r *adaptRun) issueChunk(pol adapt.Policy, tick uint32, size int, deadline time.Duration, done func(error)) {
	payload := size + int(float64(size)*(pol.Overhead()-1)+0.5)
	req := adapt.EncodePolicy(pol, tick)
	req = append(req, make([]byte, payload)...)
	r.upBytes += int64(len(req))
	r.cl.CallAsync(methodRecognize, req, core.PrioHighest, deadline, func(_ []byte, err error) {
		if err != nil {
			r.s.Logf("offload chunk mode=%s err: %v", pol.Mode, err)
		}
		done(err)
	})
}

func isRejection(err error) bool {
	return errors.Is(err, rpc.ErrServerShed) || errors.Is(err, rpc.ErrDraining) ||
		errors.Is(err, rpc.ErrCannotFinish) || errors.Is(err, rpc.ErrServerExpired)
}

// scoreDisplay records one displayed frame's verdict.
func (r *adaptRun) scoreDisplay(hit bool) {
	if r.stopped {
		return
	}
	if hit {
		r.hits++
	} else {
		r.misses++
	}
}

// feedCtrl aggregates one offload outcome into the next control tick's
// signals. Outcomes are attributed to the mode that issued them: calls
// shipped under an abandoned policy can take a full deadline to resolve,
// and letting their verdicts poison the successor mode's first seconds
// cascades the ladder straight to the bottom on every switch.
func (r *adaptRun) feedCtrl(issued adapt.Mode, ok, rejected bool) {
	if r.stopped || issued != r.pol.Mode {
		return
	}
	r.tickFrames++
	if !ok {
		r.tickMisses++
	}
	if rejected {
		r.tickRejects++
	}
	if d := r.cl.Stats().Degraded; d > r.lastDegraded {
		r.tickDegraded += int(d - r.lastDegraded)
		r.lastDegraded = d
	}
}

func (r *adaptRun) stop() { r.stopped = true }

// result snapshots the run into an AdaptResult (trace fields are filled
// by the scenario afterwards).
func (r *adaptRun) result(kind AdaptPolicyKind, seed int64) *AdaptResult {
	res := &AdaptResult{
		Kind: kind.String(), Seed: seed,
		Frames: r.frames, Hits: r.hits, Misses: r.misses,
		Offload: r.offloads, Skipped: r.skipped, UpBytes: r.upBytes,
		FinalMode: r.pol.Mode.String(), PeakWireLoss: r.peakLoss,
	}
	if r.frames > 0 {
		res.RMSError = math.Sqrt(r.sumSq / float64(r.frames))
	}
	if r.ctrl != nil {
		res.Switches = r.ctrl.Switches()
		res.Ticks = r.ctrl.Ticks()
		res.DecisionHash = r.ctrl.DecisionHash()
		res.Decisions = r.ctrl.Decisions()
		for i := 1; i < len(res.Decisions); i++ {
			if res.Decisions[i].Policy.Retransmit != res.Decisions[i-1].Policy.Retransmit {
				res.RetxFlips++
			}
		}
	}
	return res
}

// adaptServer is simServer with a mode-aware service model: the policy
// header on each request tells the server how much compute the chunk
// costs (full frames need server-side extraction; features and anchors
// only matching).
func adaptServer(s *Scenario, workers int) (*rpc.Server, *Endpoint, error) {
	ep := s.Net.NewEndpoint("server", phy.Backbone)
	srv, err := rpc.NewServer("sim", nil,
		func(uint8, []byte) []byte { return []byte("pose") },
		rpc.WithPacketConn(ep),
		rpc.WithClock(s.Clock),
		rpc.WithWorkers(workers),
		rpc.WithServiceModel(func(_ uint8, req []byte) time.Duration {
			if p, _, err := adapt.DecodePolicy(req); err == nil {
				switch p.Mode {
				case adapt.ModeFull:
					return 4 * time.Millisecond
				case adapt.ModeFeatures:
					return 2 * time.Millisecond
				}
			}
			return time.Millisecond
		}))
	if err != nil {
		return nil, nil, err
	}
	return srv, ep, nil
}

// adaptScenario builds the shared skeleton: edge radio, mode-aware
// server, one client, one adaptRun of the given kind, running the frame
// loop until `length`. The script hook installs scenario-specific phase
// events before the run starts.
func adaptScenario(name string, seed int64, kind AdaptPolicyKind, cfg adapt.Config,
	length time.Duration, script func(s *Scenario, host *Host)) (*AdaptResult, error) {
	s := NewScenario(fmt.Sprintf("%s/%s", name, kind), seed)
	srv, serverEp, err := adaptServer(s, 2)
	if err != nil {
		return nil, err
	}
	host := s.Net.NewHost("mobile", adaptEdgeProfile())
	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Clock:  s.Clock,
		Dialer: host.Dialer(serverEp),
		Seed:   seed + 1,
		Retry:  rpc.RetryPolicy{Max: 2},
		// Trace every call (uniformly, for every policy under test) so the
		// budget tracker attributes each frame's latency across stages;
		// ctrlTick feeds the measured network share into adapt.Signals.
		Tracer: obs.NewTracer(adaptBudgetSpans, seed+2),
		Budget: adaptBudget,
	})
	if err != nil {
		return nil, err
	}
	run := startAdaptRun(s, cl, kind, cfg, length)
	script(s, host)

	var res *AdaptResult
	s.Defer(func() { srv.Close() })
	s.Defer(func() {
		res = run.result(kind, seed)
		res.WireLoss = run.conn.LossRate()
		run.stop()
		cl.Close()
	})
	// Horizon: frame loop end plus the call deadline, so every in-flight
	// chunk resolves (and scores) before teardown.
	if err := s.Run(length + adaptDeadline + 100*time.Millisecond); err != nil {
		return nil, err
	}
	res.TraceHash = s.Trace.Hash()
	res.SimTime = s.Sim.Now()
	return res, nil
}

// RunAdaptCongestion is the head-to-head acceptance scenario: a 26 s run
// whose uplink passes clear → moderate cross-traffic (kills full frames)
// → heavy cross-traffic (kills features too) → clear again. The adaptive
// controller must beat every fixed rung on deadline hits while shipping
// fewer bytes than the full-frame tier.
func RunAdaptCongestion(seed int64, kind AdaptPolicyKind) (*AdaptResult, error) {
	const length = 26 * time.Second
	cfg := adaptCtrlConfig()
	return adaptScenario("adapt-congestion", seed, kind, cfg, length,
		func(s *Scenario, host *Host) {
			var stopModerate, stopHeavy func()
			// 560 kb/s into the 800 kb/s uplink: full frames (≈330 kb/s
			// offered) overload it, features (≈50 kb/s) ride comfortably.
			s.At(6*time.Second, func() { stopModerate = host.StartCrossTraffic(560e3, 400) })
			// 790 kb/s: features overload too; only sparse tracking anchors
			// (≈4 kb/s) still drain.
			s.At(14*time.Second, func() {
				stopModerate()
				stopHeavy = host.StartCrossTraffic(790e3, 400)
			})
			s.At(20*time.Second, func() { stopHeavy() })
		})
}

// RunAdaptHandover hands the client from the 6 ms edge radio to a 55 ms
// cell — across the §VI-C line where a retransmit can no longer fit the
// 75 ms budget — and back. The controller must flip ARQ→FEC on the way
// out and FEC→ARQ on the way home.
func RunAdaptHandover(seed int64, kind AdaptPolicyKind) (*AdaptResult, error) {
	const length = 24 * time.Second
	cfg := adaptCtrlConfig()
	return adaptScenario("adapt-handover", seed, kind, cfg, length,
		func(s *Scenario, host *Host) {
			s.At(8*time.Second, func() { host.SetProfile(adaptCellProfile()) })
			s.At(16*time.Second, func() { host.SetProfile(adaptEdgeProfile()) })
		})
}

// RunAdaptGEBurst drives Gilbert–Elliott burst loss over the uplink for
// the middle ten seconds of a 16 s run: long clean stretches punctuated
// by ~60%-loss bursts, the exact signal shape that makes an unguarded
// controller flap. The hysteresis test runs it twice — guarded and
// naive — and compares switch counts.
func RunAdaptGEBurst(seed int64, kind AdaptPolicyKind) (*AdaptResult, error) {
	const length = 16 * time.Second
	cfg := adaptCtrlConfig()
	return adaptScenario("adapt-ge-burst", seed, kind, cfg, length,
		func(s *Scenario, host *Host) {
			filter := faultsGE(seed)
			s.At(3*time.Second, func() { host.SetUplinkFilter(filter) })
			s.At(13*time.Second, func() { host.SetUplinkFilter(nil) })
		})
}

// faultsGE is the burst process for RunAdaptGEBurst: bursts average ~3
// packets at 60% loss, separated by clean stretches (stationary loss
// ≈ 4%) — bursty enough to spike the per-tick miss fraction without
// moving its long-run mean much.
func faultsGE(seed int64) simnet.PacketFilter {
	return faults.NewLinkFilter(faults.DirConfig{GE: &faults.GilbertElliott{
		PGoodBad: 0.025, PBadGood: 0.3, LossGood: 0, LossBad: 0.65,
	}}, seed+7)
}

// adaptCtrlConfig is the controller tuning shared by the adapt
// scenarios: snappier than the deployment defaults because simulated
// phases are seconds, not minutes.
func adaptCtrlConfig() adapt.Config {
	return adapt.Config{
		Budget:       adaptBudget,
		MinDwell:     400 * time.Millisecond,
		UpgradeAfter: time.Second,
		ProbeAfter:   2500 * time.Millisecond,
		MissGain:     0.4,
	}
}
