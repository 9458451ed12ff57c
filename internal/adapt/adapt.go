// Package adapt closes the paper's robustness loop on the client: a
// degradation controller that watches what the network and the server are
// actually doing — smoothed RTT and loss from the wire session, budget
// attribution from obs, rejection/tier feedback from rpc — and decides,
// every control tick, *what the client should ship next*.
//
// The decision has three parts, straight from §III-B and §VI-C:
//
//   - Payload mode: the degradation ladder full frame → features →
//     tracking-only → skip. Shipping less costs accuracy (tracking drift)
//     but buys latency headroom; the controller walks down the ladder when
//     frames miss the motion-to-photon budget and back up when the path
//     recovers.
//
//   - Recovery scheme: retransmission is affordable only while
//     RTT ≤ budget/2 (37.5 ms against the 75 ms budget) — one retransmit
//     costs an extra RTT and must still land inside the deadline. Above the
//     bound the controller switches to forward error correction and sizes
//     the Reed–Solomon code from the measured loss rate via
//     fec.ResidualLoss.
//
//   - Hysteresis: both the ladder and the retransmit switch carry
//     min-dwell, sustained-recovery, and dead-band guards so bursty
//     Gilbert–Elliott loss cannot make the policy oscillate. A controller
//     that flaps between modes is worse than either mode.
//
// The controller is deliberately clock-free: callers feed it elapsed time,
// so the same tick sequence produces the same decision trace under the
// virtual clock (marsim) and the wall clock alike.
package adapt

import (
	"sync"
	"time"

	"marnet/internal/obs"
)

// Mode is a rung of the client degradation ladder, ordered from most to
// least uplink demand. The zero value is ModeFull.
type Mode uint8

const (
	// ModeFull ships the full camera frame for server-side recognition.
	ModeFull Mode = iota
	// ModeFeatures ships extracted feature descriptors only (§III-B: ~6 kB
	// against ~20 kB for a compressed frame).
	ModeFeatures
	// ModeTracking runs local tracking and ships only sparse feature
	// anchors so the server can still correct drift.
	ModeTracking
	// ModeSkip ships nothing: pure local tracking, riding out an outage.
	ModeSkip

	numModes = 4
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeFeatures:
		return "features"
	case ModeTracking:
		return "tracking"
	case ModeSkip:
		return "skip"
	}
	return "invalid"
}

// RetxAffordableRTT is the paper's §VI-C bound: with a 75 ms end-to-end
// budget, a loss can be repaired by retransmission only if the extra
// round trip still fits — RTT ≤ budget/2.
const RetxAffordableRTT = obs.DefaultBudget / 2

// Policy is one shipping decision: what to send and how to protect it.
type Policy struct {
	// Mode is the payload rung.
	Mode Mode
	// Retransmit is true when loss recovery rides ARQ (RTT below the
	// affordability bound); false means FEC carries recovery instead.
	Retransmit bool
	// K and M are the Reed–Solomon data/repair shard counts when
	// Retransmit is false; both zero under ARQ.
	K, M int
}

// Overhead reports the FEC expansion factor of the policy (1 under ARQ).
func (p Policy) Overhead() float64 {
	if p.Retransmit || p.K <= 0 {
		return 1
	}
	return float64(p.K+p.M) / float64(p.K)
}

// Signals is the controller's per-tick input, aggregated by the caller
// since the previous tick.
type Signals struct {
	// SRTT is the wire session's smoothed RTT (0 = unknown).
	SRTT time.Duration
	// Loss is the wire session's smoothed loss rate in [0,1].
	Loss float64
	// Frames is how many offload attempts completed (in any way) since the
	// last tick; Misses is how many of those missed the budget — late,
	// timed out, shed, or rejected.
	Frames, Misses int
	// Rejections counts typed server rejections (shed/draining/cannot-
	// finish) among the misses: immediate evidence the server wants less.
	Rejections int
	// Degraded counts responses the server served from a degraded ladder
	// tier — softer pressure than a rejection.
	Degraded int
	// NetShare optionally reports the network share of the latest
	// obs.BudgetReport (uplink+downlink as a fraction of total); above
	// netShareHigh it biases degradation toward smaller payloads since the
	// budget is going to the network, not compute.
	NetShare float64
}

// Config tunes the controller. The zero value selects the paper-derived
// defaults documented on each field.
type Config struct {
	// Budget is the motion-to-photon budget (default obs.DefaultBudget,
	// 75 ms). ARQ is affordable while SRTT ≤ Budget/2, with a dead band of
	// Budget/16 (≈4.7 ms at the default budget) around that bound: ARQ→FEC
	// above it by half the band, FEC→ARQ below it by half the band.
	Budget time.Duration
	// MinDwell is the minimum time between mode switches (default 500 ms).
	MinDwell time.Duration
	// UpgradeAfter is how long the miss rate must stay below upAt before
	// climbing a rung (default 1.5 s).
	UpgradeAfter time.Duration
	// ProbeAfter forces a one-rung upgrade probe after this long stuck in
	// a degraded mode with no recovery evidence (default 4 s) — without
	// it, ModeSkip is a trap: shipping nothing produces no samples that
	// could ever justify shipping again.
	ProbeAfter time.Duration
	// MissGain is the EWMA gain for the miss rate (default 0.3).
	MissGain float64
	// NoHysteresis strips every guard — dead band, dwell, sustain, probe —
	// leaving a naive threshold controller. It exists so tests can show
	// what the guards prevent; do not deploy it.
	NoHysteresis bool
	// Recorder, when set, receives an EvAdaptMove flight-recorder event on
	// every ladder switch and an EvRetxSwitch on every ARQ/FEC flip.
	Recorder *obs.FlightRecorder
}

// netShareHigh: when the network eats this fraction of the frame budget,
// degradation pressure applies even if frames are still (barely) landing.
const netShareHigh = 0.7

const (
	// downAt and upAt are the miss-EWMA thresholds for degrading and
	// upgrading; the gap is the ladder hysteresis.
	downAt, upAt = 0.5, 0.1
	// dataShards is the Reed–Solomon K under FEC, and maxRepair caps M (a
	// 1.5× worst-case expansion).
	dataShards, maxRepair = 8, 4
	// targetResidual is the post-FEC residual block-loss target fed to
	// fec.ResidualLoss.
	targetResidual = 1e-3
)

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = obs.DefaultBudget
	}
	if c.MinDwell <= 0 {
		c.MinDwell = 500 * time.Millisecond
	}
	if c.UpgradeAfter <= 0 {
		c.UpgradeAfter = 1500 * time.Millisecond
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 4 * time.Second
	}
	if c.MissGain <= 0 {
		c.MissGain = 0.3
	}
	return c
}

// Decision is one recorded controller output.
type Decision struct {
	Now      time.Duration
	Tick     uint32
	Policy   Policy
	Miss     float64 // miss-EWMA after this tick's update
	Switched bool    // the payload mode changed this tick
	Probe    bool    // the switch was a blind upgrade probe
}

// maxTrace bounds the retained decision trace; the rolling hash keeps
// covering every tick even after old entries are dropped.
const maxTrace = 16384

// Controller is the adaptive degradation state machine. It is safe for
// concurrent use (metrics readers race with the ticking goroutine), but
// Tick itself is expected to be called from one place.
type Controller struct {
	cfg Config

	mu         sync.Mutex
	mode       Mode
	retx       bool
	retxKnown  bool
	miss       float64
	missKnown  bool
	lastSwitch time.Duration
	cleanSince time.Duration // when the current sustained-clean run began; -1 = none
	upgraded   bool          // the most recent switch went up the ladder
	upPenalty  uint          // relapse backoff: doubles the upgrade/probe windows
	started    bool
	switches   int64
	ticks      int64
	pol        Policy
	decisions  []Decision
	hash       uint64 // rolling FNV-1a over every encoded decision
}

// NewController builds a controller starting at ModeFull with ARQ
// recovery (the optimistic policy — signals will pull it down).
func NewController(cfg Config) *Controller {
	c := &Controller{
		cfg:        cfg.withDefaults(),
		retx:       true,
		cleanSince: -1,
		hash:       fnvOffset,
	}
	c.pol = Policy{Mode: ModeFull, Retransmit: true}
	return c
}

// Tick feeds one control interval's signals and returns the policy to
// apply until the next tick. now is elapsed time on the caller's clock;
// it must be monotonic.
func (c *Controller) Tick(now time.Duration, sig Signals) Policy {
	c.mu.Lock()
	defer c.mu.Unlock()

	c.ticks++
	if !c.started {
		c.started = true
		c.lastSwitch = now
	}

	// 1. Miss pressure: EWMA over the per-tick miss fraction. Server
	// pushback and a network-dominated budget count as pressure even when
	// responses technically land.
	instant := -1.0
	if sig.Frames > 0 {
		sample := float64(sig.Misses) / float64(sig.Frames)
		// A network-dominated budget floors the sample at the pressure
		// threshold — enough to stop upgrades and walk down one rung at a
		// time, but not a slam to the bottom: frames are still landing.
		if sig.NetShare > netShareHigh && sample < downAt {
			sample = downAt
		}
		instant = sample
		if !c.missKnown {
			c.miss, c.missKnown = sample, true
		} else {
			c.miss += c.cfg.MissGain * (sample - c.miss)
		}
	}

	// 2. The §VI-C switch: ARQ only while the path can afford a retransmit
	// inside the budget, with a dead band so SRTT jitter around the bound
	// does not flap the recovery scheme.
	prevRetx, prevRetxKnown := c.retx, c.retxKnown
	if sig.SRTT > 0 {
		bound, band := c.cfg.Budget/2, c.cfg.Budget/16
		if c.cfg.NoHysteresis {
			c.retx = sig.SRTT <= bound
		} else {
			switch {
			case !c.retxKnown:
				c.retx = sig.SRTT <= bound
			case c.retx && sig.SRTT > bound+band/2:
				c.retx = false
			case !c.retx && sig.SRTT < bound-band/2:
				c.retx = true
			}
		}
		c.retxKnown = true
	}
	if prevRetxKnown && c.retx != prevRetx {
		var on uint8
		if c.retx {
			on = 1
		}
		c.cfg.Recorder.Record(obs.EvRetxSwitch, on, 0, uint32(c.ticks), uint64(sig.SRTT.Microseconds()))
	}

	// 3. Walk the ladder.
	prevMode := c.mode
	switched, probe := c.stepModeLocked(now, sig, instant)
	if switched {
		var pr uint8
		if probe {
			pr = 1
		}
		c.cfg.Recorder.Record(obs.EvAdaptMove, pr,
			uint16(prevMode)<<8|uint16(c.mode), uint32(c.ticks), uint64(c.miss*1e6))
	}

	// 4. Assemble the policy. Under FEC, size the code for the measured
	// loss; at least one repair shard — if ARQ is unaffordable, an
	// unprotected block has no recovery path at all.
	p := Policy{Mode: c.mode, Retransmit: c.retx}
	if !c.retx && c.mode != ModeSkip {
		p.K = dataShards
		if m := PlanRepair(p.K, maxRepair, sig.Loss, targetResidual); m > 1 {
			p.M = m
		} else {
			p.M = 1
		}
	}
	c.pol = p

	d := Decision{
		Now:      now,
		Tick:     uint32(c.ticks),
		Policy:   p,
		Miss:     c.miss,
		Switched: switched,
		Probe:    probe,
	}
	c.recordLocked(d)
	return p
}

// stepModeLocked applies the ladder state machine for one tick and
// reports whether the mode changed (and whether as a blind probe).
// instant is this tick's raw miss fraction (-1 when no frames completed).
func (c *Controller) stepModeLocked(now time.Duration, sig Signals, instant float64) (switched, probe bool) {
	pressure := c.missKnown && c.miss >= downAt
	if sig.Rejections > 0 {
		pressure = true // a typed rejection is the server saying "less", now
	}
	clean := c.missKnown && c.miss <= upAt && sig.Rejections == 0 && sig.Degraded == 0

	if c.cfg.NoHysteresis {
		// Naive thresholding: act on this tick's raw verdict, no smoothing,
		// no dwell — the strawman the guards exist to beat.
		if instant >= 0 {
			pressure = instant >= downAt || sig.Rejections > 0
			clean = instant <= upAt && sig.Rejections == 0 && sig.Degraded == 0
		}
		if pressure && c.mode < ModeSkip {
			c.switchLocked(now, c.mode+1)
			return true, false
		}
		if clean && c.mode > ModeFull {
			c.switchLocked(now, c.mode-1)
			return true, false
		}
		return false, false
	}

	// Relapse backoff: an upgrade that gets knocked straight back down was
	// a failed probe of a still-bad path — double the wait before the next
	// attempt (capped at 16×). An upgrade that survives its base window
	// proves the path and resets the penalty.
	if c.upgraded && now-c.lastSwitch >= c.cfg.UpgradeAfter {
		c.upPenalty = 0
	}

	dwelled := now-c.lastSwitch >= c.cfg.MinDwell
	if pressure {
		c.cleanSince = -1
		if c.mode < ModeSkip && dwelled {
			if c.upgraded && now-c.lastSwitch < c.cfg.UpgradeAfter && c.upPenalty < 4 {
				c.upPenalty++
			}
			c.upgraded = false
			c.switchLocked(now, c.mode+1)
			// A switch changes what ships, so the old miss history no
			// longer describes the new policy: restart from neutral
			// instead of letting stale pressure cascade down the ladder.
			c.miss = (downAt + upAt) / 2
			return true, false
		}
		return false, false
	}

	if c.mode == ModeFull {
		c.cleanSince = -1
		return false, false
	}
	if clean {
		if c.cleanSince < 0 {
			c.cleanSince = now
		}
		if dwelled && now-c.cleanSince >= c.cfg.UpgradeAfter<<c.upPenalty {
			c.upgraded = true
			c.switchLocked(now, c.mode-1)
			c.miss = (downAt + upAt) / 2
			return true, false
		}
		return false, false
	}
	// Only positive evidence of a still-bad path restarts the clean run. A
	// tick with no samples at all (degraded modes ship sparsely — tracking
	// anchors land every few hundred ms) says nothing either way, and
	// resetting on it would make the sustained-clean window unreachable for
	// exactly the modes that most need a way back up.
	if sig.Frames > 0 || sig.Rejections > 0 || sig.Degraded > 0 {
		c.cleanSince = -1
	}
	// Neither clean nor under pressure — often because a degraded mode
	// ships too little to produce evidence (ModeSkip ships nothing). After
	// ProbeAfter stuck, probe one rung up; if the path is still bad the
	// miss EWMA will send us straight back down after MinDwell.
	if now-c.lastSwitch >= c.cfg.ProbeAfter<<c.upPenalty {
		c.upgraded = true
		c.switchLocked(now, c.mode-1)
		c.miss = (downAt + upAt) / 2
		return true, true
	}
	return false, false
}

func (c *Controller) switchLocked(now time.Duration, to Mode) {
	c.mode = to
	c.lastSwitch = now
	c.cleanSince = -1
	c.switches++
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// recordLocked appends the decision to the trace and folds its canonical
// encoding into the rolling hash.
func (c *Controller) recordLocked(d Decision) {
	var buf [PolicyLen]byte
	encodePolicyInto(buf[:0], d.Policy, d.Tick)
	for _, b := range buf {
		c.hash = (c.hash ^ uint64(b)) * fnvPrime
	}
	if len(c.decisions) >= maxTrace {
		// Drop the older half; the hash already covers it.
		n := copy(c.decisions, c.decisions[maxTrace/2:])
		c.decisions = c.decisions[:n]
	}
	c.decisions = append(c.decisions, d)
}

// Policy returns the most recent decision without ticking.
func (c *Controller) Policy() Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pol
}

// Switches reports how many times the payload mode changed.
func (c *Controller) Switches() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.switches
}

// Ticks reports how many control intervals have been fed.
func (c *Controller) Ticks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

// Decisions returns a copy of the retained decision trace (the most
// recent maxTrace entries).
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Decision, len(c.decisions))
	copy(out, c.decisions)
	return out
}

// DecisionHash is a rolling FNV-1a over the canonical encoding of every
// decision ever made — two controllers fed identical ticks produce
// identical hashes, which is how the determinism acceptance check
// compares whole runs without retaining them.
func (c *Controller) DecisionHash() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hash
}
