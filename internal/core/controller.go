package core

import "time"

// Controller is ARTP's graceful-degradation congestion controller (Section
// VI-B). Instead of a congestion window it maintains a sending *budget* in
// bits/s. The budget grows additively while the path looks healthy and is
// cut multiplicatively when congestion is signalled. Congestion signals are
// (a) smoothed RTT rising past the observed base RTT by delayThreshold —
// "a sudden rise of delay or jitter should be treated as a congestion
// indication, with immediate reaction" — and (b) loss of packets from
// non-discardable streams.
//
// Rate discovery: additive growth at gain is a ramp sized for radio links of
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
	budget       float64
	rtt          RTT
	prevSrtt     time.Duration // the smoothed RTT after the previous ack: its trend
	lastDecrease time.Duration
	lastIncrease time.Duration
	peerRate     float64 // last ObservePeerRate reading, bits/s (0 = none)
	cutFrom      float64 // budget in force at the most recent decrease (0 = none)

	onChange func()
}

// BaseRTTFloor is the shortest interval the controller treats as one round
// trip — for the decrease guard and for growth per RTT — however small the
// measured base RTT. An endpoint measuring its peer's sending rate for
// ObservePeerRate averages over at least this long, so one reading spans
// what the controller calls an RTT.
const BaseRTTFloor = 10 * time.Millisecond

const (
	// Budget bounds in bits/s.
	minBudget = 64e3
	maxBudget = 1e9
	// beta is the multiplicative decrease factor.
	beta = 0.7
	// gain is the additive increase in bits/s per second of healthy
	// operation.
	gain = 1e6
	// delayThreshold is how far above base RTT the smoothed RTT may rise
	// before it is treated as congestion: below the "few dozen
	// milliseconds" of RTT variance the paper tolerates, above the
	// mean-vs-min gap of a jittery cellular link.
	delayThreshold = 25 * time.Millisecond
)

// NewController returns a controller starting at startBudget bits/s.
func NewController(startBudget float64) *Controller {
	return &Controller{budget: startBudget}
}

// Budget reports the current sending budget in bits/s.
func (c *Controller) Budget() float64 { return c.budget }

// RTT is the controller's estimator of the samples OnAck is fed: its
// minimum is the base RTT, its deviation the jitter trigger() widens on.
func (c *Controller) RTT() *RTT { return &c.rtt }

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

func (c *Controller) changed() {
	if c.onChange != nil {
		c.onChange()
	}
}

// OnAck feeds one RTT sample. The controller updates its delay statistics,
// raises the budget additively when healthy, and cuts it when the delay
// signal fires.
func (c *Controller) OnAck(now time.Duration, rtt time.Duration) {
	c.rtt.Update(rtt)
	srtt, base := c.rtt.Smoothed(), c.rtt.Min()

	trendingDown := srtt < c.prevSrtt
	c.prevSrtt = srtt
	if srtt > base+c.trigger() {
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
	inc := gain * dt
	// Proportional growth toward the peer's observed rate: while the
	// budget is below probeTarget, the path has been calm for a while AND
	// the delay sits right at its floor (no queue anywhere — clear
	// headroom), grow ~25% per base RTT, stopping exactly at the target.
	// Near saturation the delay hovers around the trigger and growth stays
	// additive, keeping the equilibrium calm.
	floor := max(base, BaseRTTFloor)
	calm := c.lastDecrease == 0 || now-c.lastDecrease > 8*floor
	headroom := srtt <= base+c.trigger()/4
	if room := c.probeTarget() - c.budget; room > 0 && calm && headroom {
		inc = max(inc, min(c.budget*0.25*dt/floor.Seconds(), room))
	}
	c.budget = min(c.budget+inc, maxBudget)
	c.changed()
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
	if c.rtt.Smoothed() <= c.rtt.Min()+c.trigger()/2 {
		return // random wireless loss, not congestion
	}
	c.decrease(now)
}

// trigger is the delay excess treated as congestion: the configured
// threshold, widened on channels whose own jitter would otherwise read as
// a standing queue (cellular links jitter by tens of milliseconds with no
// congestion at all — Section IV-A).
func (c *Controller) trigger() time.Duration {
	if j := 3 * c.rtt.Dev(); j > delayThreshold {
		return j
	}
	return delayThreshold
}

// decrease applies a multiplicative cut, at most once per base RTT (the
// queue-free path RTT — using the inflated smoothed RTT here would slow the
// reaction exactly when the queue is deepest).
func (c *Controller) decrease(now time.Duration) {
	if c.lastDecrease != 0 && now-c.lastDecrease < max(c.rtt.Min(), BaseRTTFloor) {
		return
	}
	c.lastDecrease = now
	c.lastIncrease = now
	c.cutFrom = c.budget
	// Severity-proportional cut: a delay just past the trigger gets a
	// gentle trim (x0.95); delay at twice the trigger or worse gets the
	// full beta cut. Mild standing queues — the steady state when many
	// flows share one bottleneck — then converge near capacity instead of
	// synchronously collapsing.
	factor := beta
	if over := c.rtt.Smoothed() - (c.rtt.Min() + c.trigger()); over > 0 {
		sev := float64(over) / float64(c.trigger())
		if sev > 1 {
			sev = 1
		}
		factor = 0.95 - (0.95-beta)*sev
	}
	c.budget *= factor
	if c.budget < minBudget {
		c.budget = minBudget
	}
	c.changed()
}
