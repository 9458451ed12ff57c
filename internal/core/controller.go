package core

import (
	"time"

	"marnet/internal/trace"
)

// Controller is ARTP's graceful-degradation congestion controller (Section
// VI-B). Instead of a congestion window it maintains a sending *budget* in
// bits/s. The budget grows additively while the path looks healthy and is
// cut multiplicatively when congestion is signalled. Congestion signals are
// (a) smoothed RTT rising past the observed base RTT by DelayThreshold —
// "a sudden rise of delay or jitter should be treated as a congestion
// indication, with immediate reaction" — and (b) loss of packets from
// non-discardable streams.
//
// Rate discovery: additive growth at Gain is a ramp sized for radio links of
// a few Mb/s, so a budget that starts far below what the path carries would
// take minutes to find it. ObservePeerRate tells the controller the rate the
// peer was measured sending at — by Section IV-D's asymmetry (MAR uploads
// over links whose downlink is at least their uplink) a rate the reverse
// path is already known to carry — and while the budget is below it the
// calm-and-queue-free proportional growth below is in force, up to that
// rate and never past the budget the last decrease cut from (see
// probeTarget). A controller that was never told a peer rate, or whose
// budget already exceeds it, behaves exactly as one without the method.
type Controller struct {
	// Budget bounds in bits/s.
	MinBudget float64
	MaxBudget float64

	// Beta is the multiplicative decrease factor (default 0.7).
	Beta float64
	// Gain is the additive increase in bits/s per second of healthy
	// operation (default 1 Mb/s per second).
	Gain float64
	// DelayThreshold is how far above base RTT the smoothed RTT may rise
	// before it is treated as congestion (default 25 ms — below the "few
	// dozen milliseconds" of RTT variance the paper tolerates, above the
	// mean-vs-min gap of a jittery cellular link).
	DelayThreshold time.Duration
	// RecoveryGrowth enables proportional (~25%/RTT) budget growth during
	// calm, queue-free periods so the budget can re-track links whose
	// capacity swings by orders of magnitude (D2D mobility). Off by
	// default: on near-saturated steady links it trades some stability for
	// agility. (Bounded by an observed peer rate the same growth applies
	// without this switch: see ObservePeerRate.)
	RecoveryGrowth bool

	budget       float64
	baseRTT      time.Duration
	srtt         time.Duration
	prevSrtt     time.Duration
	jitter       time.Duration
	lastDecrease time.Duration
	lastIncrease time.Duration
	peerRate     float64 // last ObservePeerRate reading, bits/s (0 = none)
	cutFrom      float64 // budget in force at the most recent decrease (0 = none)

	// Trace, when set, records the budget after every change.
	Trace *trace.Series
	// Decreases counts congestion events acted on.
	Decreases int64
	// RandomLosses counts valuable losses ignored because the delay signal
	// was healthy (treated as wireless noise, not congestion).
	RandomLosses int64

	onChange func()
}

// BaseRTTFloor is the shortest interval the controller treats as one round
// trip — for the decrease guard and for growth per RTT — however small the
// measured base RTT. An endpoint measuring its peer's sending rate for
// ObservePeerRate averages over at least this long, so one reading spans
// what the controller calls an RTT.
const BaseRTTFloor = 10 * time.Millisecond

// NewController returns a controller starting at startBudget bits/s.
func NewController(startBudget float64) *Controller {
	return &Controller{
		MinBudget:      64e3,
		MaxBudget:      1e9,
		Beta:           0.7,
		Gain:           1e6,
		DelayThreshold: 25 * time.Millisecond,
		budget:         startBudget,
	}
}

// Budget reports the current sending budget in bits/s.
func (c *Controller) Budget() float64 { return c.budget }

// SRTT reports the smoothed RTT estimate.
func (c *Controller) SRTT() time.Duration { return c.srtt }

// BaseRTT reports the minimum RTT observed.
func (c *Controller) BaseRTT() time.Duration { return c.baseRTT }

// Jitter reports the mean absolute RTT deviation.
func (c *Controller) Jitter() time.Duration { return c.jitter }

// ObservePeerRate records the rate, in bits/s, at which the peer was last
// measured sending to this endpoint. It changes no budget by itself: OnAck
// probes toward it while the path stays calm and queue-free.
func (c *Controller) ObservePeerRate(bps float64) { c.peerRate = bps }

// PeerRate reports the last ObservePeerRate reading (0 before the first).
func (c *Controller) PeerRate() float64 { return c.peerRate }

// probeTarget is where proportional growth toward the peer's rate stops: the
// observed rate, capped by the budget the most recent decrease cut from.
// The cap is what keeps a downlink narrower than the uplink safe — there the
// smoothed RTT lags 25 %/RTT growth, so an uncapped probe overshoots the
// link again after every cut (TestProbeDoesNotBloatSlowDownlink has the
// rows); past the cap only the additive step explores.
func (c *Controller) probeTarget() float64 {
	if c.cutFrom > 0 && c.cutFrom < c.peerRate {
		return c.cutFrom
	}
	return c.peerRate
}

// SetOnChange installs the callback invoked after every budget change (the
// sender uses it to re-run priority allocation).
func (c *Controller) SetOnChange(fn func()) { c.onChange = fn }

func (c *Controller) record(now time.Duration) {
	if c.Trace != nil {
		c.Trace.Add(now, c.budget)
	}
	if c.onChange != nil {
		c.onChange()
	}
}

// OnAck feeds one RTT sample. The controller updates its delay statistics,
// raises the budget additively when healthy, and cuts it when the delay
// signal fires.
func (c *Controller) OnAck(now time.Duration, rtt time.Duration) {
	if c.baseRTT == 0 || rtt < c.baseRTT {
		c.baseRTT = rtt
	}
	if c.srtt == 0 {
		c.srtt = rtt
	} else {
		diff := c.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		c.jitter = (3*c.jitter + diff) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}

	trendingDown := c.srtt < c.prevSrtt
	c.prevSrtt = c.srtt
	if c.srtt > c.baseRTT+c.trigger() {
		// Cut only while the delay is still building. Once the signal
		// trends down the earlier cut is working and the queue is
		// draining — cutting again on the lagging EWMA is the "cut train"
		// that collapses utilization when many flows share a bottleneck.
		if !trendingDown {
			c.decrease(now)
		}
		return // never increase while the delay is elevated
	}

	// Healthy: additive increase, proportional to elapsed time so the ack
	// rate does not change the ramp slope.
	if c.lastIncrease == 0 {
		c.lastIncrease = now
		return
	}
	dt := (now - c.lastIncrease).Seconds()
	c.lastIncrease = now
	inc := c.Gain * dt
	// Exponential recovery: when the path has been calm for a while AND
	// the delay sits right at its floor (no queue anywhere — clear
	// headroom), grow proportionally (~25% per base RTT) so the budget can
	// re-track links whose capacity swings by orders of magnitude (D2D
	// mobility, cellular fades). Near saturation the delay hovers around
	// the trigger and growth stays additive, keeping the equilibrium calm.
	// The same law closes the distance to the peer's observed rate, whether
	// or not RecoveryGrowth is set, and then stops exactly at probeTarget.
	base := max(c.baseRTT, BaseRTTFloor)
	calm := c.lastDecrease == 0 || now-c.lastDecrease > 8*base
	headroom := c.srtt <= c.baseRTT+c.trigger()/4
	room := c.probeTarget() - c.budget
	if (c.RecoveryGrowth || room > 0) && calm && headroom {
		prop := c.budget * 0.25 * dt / base.Seconds()
		if !c.RecoveryGrowth && prop > room {
			prop = room
		}
		if prop > inc {
			inc = prop
		}
	}
	c.budget += inc
	if c.budget > c.MaxBudget {
		c.budget = c.MaxBudget
	}
	c.record(now)
}

// OnLoss signals the loss of a packet; lossOfValuable marks losses from
// non-discardable streams. Losses of freely discardable traffic are always
// ignored (they are the traffic the protocol itself sheds). Valuable losses
// only cut the budget when the delay signal is also elevated: loss with a
// healthy delay is random wireless loss, and reacting to it would starve
// the flow on every lossy access network (exactly the over-reaction the
// paper criticizes in loss-based congestion control).
func (c *Controller) OnLoss(now time.Duration, lossOfValuable bool) {
	if !lossOfValuable {
		return
	}
	if c.srtt <= c.baseRTT+c.trigger()/2 {
		c.RandomLosses++
		return
	}
	c.decrease(now)
}

// trigger is the delay excess treated as congestion: the configured
// threshold, widened on channels whose own jitter would otherwise read as
// a standing queue (cellular links jitter by tens of milliseconds with no
// congestion at all — Section IV-A).
func (c *Controller) trigger() time.Duration {
	if j := 3 * c.jitter; j > c.DelayThreshold {
		return j
	}
	return c.DelayThreshold
}

// decrease applies a multiplicative cut, at most once per base RTT (the
// queue-free path RTT — using the inflated smoothed RTT here would slow the
// reaction exactly when the queue is deepest).
func (c *Controller) decrease(now time.Duration) {
	if c.lastDecrease != 0 && now-c.lastDecrease < max(c.baseRTT, BaseRTTFloor) {
		return
	}
	c.lastDecrease = now
	c.lastIncrease = now
	c.cutFrom = c.budget
	// Severity-proportional cut: a delay just past the trigger gets a
	// gentle trim (x0.95); delay at twice the trigger or worse gets the
	// full Beta cut. Mild standing queues — the steady state when many
	// flows share one bottleneck — then converge near capacity instead of
	// synchronously collapsing.
	factor := c.Beta
	if over := c.srtt - (c.baseRTT + c.trigger()); over > 0 {
		sev := float64(over) / float64(c.trigger())
		if sev > 1 {
			sev = 1
		}
		factor = 0.95 - (0.95-c.Beta)*sev
	}
	c.budget *= factor
	if c.budget < c.MinBudget {
		c.budget = c.MinBudget
	}
	c.Decreases++
	c.record(now)
}
