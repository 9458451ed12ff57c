package overload

import (
	"time"

	"marnet/internal/queue/codel"
)

// Tiers is the number of admission tiers, one per ARTP priority level
// (core.AdmissionTiers; a constant of its own so the package stays free of
// core). Tier 0 is protected: the queue-delay controller never sheds it.
const Tiers = 4

// Item is one unit of admitted work moving through the admission queues.
type Item struct {
	// Tier is the admission tier (0 = most protected; see
	// core.Priority.AdmissionTier).
	Tier int
	// Method keys the service-time estimate for cannot-finish checks.
	Method uint8
	// Deadline is the absolute point after which the work is useless
	// (zero = none): arrival time plus the client's propagated budget.
	Deadline time.Time
	// Enqueued is stamped at admission; sojourn = now - Enqueued.
	Enqueued time.Time
	// Degrade is the response tier the gate selected at dispatch
	// (TierFull unless the ladder is active).
	Degrade Tier
	// Job is the caller's payload (e.g. the decoded request and the conn
	// to answer on).
	Job any
}

// itemRing is one tier's FIFO: a ring of QueueCap slots made once (offer
// checks the cap before pushing). A slice queue advanced with q[1:] walks
// off its array and reallocates once per item when depth oscillates 0↔1.
type itemRing struct {
	buf     []*Item
	head, n int
}

func (r *itemRing) push(it *Item) {
	r.buf[(r.head+r.n)%len(r.buf)] = it
	r.n++
}

// popFront removes the oldest item; the ring must not be empty.
func (r *itemRing) popFront() *Item {
	it := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return it
}

// popBack removes the newest item; the ring must not be empty.
func (r *itemRing) popBack() *Item {
	i := (r.head + r.n - 1) % len(r.buf)
	it := r.buf[i]
	r.buf[i] = nil
	r.n--
	return it
}

// AdmissionStats is a snapshot of the queue counters. Slices are indexed
// by tier.
type AdmissionStats struct {
	Offered    []int64 // offers per tier
	Admitted   []int64 // offers that entered a queue
	TailDrop   []int64 // offers refused because the tier queue was full
	CoDelShed  []int64 // queued items shed by the queue-delay controller
	Dispatched []int64 // items handed over by the gate's Next
}

// Admission is the tiered admission queue: bounded FIFO per tier, strict
// highest-tier-first dispatch, and the CoDel law (package codel) run on the
// sojourn of dispatched work, shedding queued items — always from the
// lowest tier above 0 — when the queue delay stays above codel.Target
// for a full codel.Interval. This is the ARTP twist on RFC 8289: the signal
// is classic CoDel, but the drop falls on the traffic the priority model
// says is expendable, not on the head of the line.
//
// Admission has no lock of its own: the Gate that owns it calls it only
// under the gate's one mutex, so one admission decision takes one lock.
type Admission struct {
	queueCap int
	clock    func() time.Time

	tiers  [Tiers]itemRing
	closed bool

	law   codel.Law
	epoch time.Time // the law's time origin: it runs on now.Sub(epoch)

	// delayEWMA tracks the sojourn of dispatched items; the gate reads it
	// as the load signal for the ladder and the health probe. delayTier
	// tracks the same signal per tier: a high-priority request jumps the
	// queues, so its expected wait is its own tier's recent sojourn, not
	// the global mix.
	delayEWMA time.Duration
	delayTier [Tiers]time.Duration

	offered, admitted, tailDrop, codelShed, dispatched [Tiers]int64
}

// newAdmission builds queues of queueCap slots per tier, judged on clock.
func newAdmission(queueCap int, clock func() time.Time) *Admission {
	a := &Admission{queueCap: queueCap, clock: clock, epoch: clock()}
	for i := range a.tiers {
		a.tiers[i].buf = make([]*Item, queueCap)
	}
	return a
}

// offer submits an item for admission at now. It returns false when the
// item's tier queue is at capacity (or the queues are closed); the item is
// stamped and queued otherwise.
func (a *Admission) offer(it *Item, now time.Time) bool {
	a.clampTier(it)
	a.offered[it.Tier]++
	if a.closed || a.tiers[it.Tier].n >= a.queueCap {
		a.tailDrop[it.Tier]++
		return false
	}
	a.enter(it, now)
	a.tiers[it.Tier].push(it)
	return true
}

// take is offer and pop in one step, for a caller that will run the item
// itself: when nothing of its tier or a higher one is queued — so a pop
// would hand over exactly this item — it is counted offered, admitted and
// dispatched at now, and its zero sojourn feeds the delay signals as a
// pop's would. It reports false, changing nothing, when the item would
// have to wait its turn (or the queues are closed).
func (a *Admission) take(it *Item, now time.Time) bool {
	a.clampTier(it)
	if a.closed {
		return false
	}
	for t := 0; t <= it.Tier; t++ {
		if a.tiers[t].n > 0 {
			return false
		}
	}
	a.offered[it.Tier]++
	a.enter(it, now)
	a.dispatch(it, now) // a zero sojourn is under Target: nothing is shed
	return true
}

// clampTier maps an item's tier into [0, Tiers).
func (a *Admission) clampTier(it *Item) {
	it.Tier = min(max(it.Tier, 0), Tiers-1)
}

// enter stamps and counts an item entering the queues at now.
func (a *Admission) enter(it *Item, now time.Time) {
	it.Enqueued = now
	if it.Degrade == 0 {
		it.Degrade = TierFull
	}
	a.admitted[it.Tier]++
}

// dispatch counts an item leaving the queues at now, runs the CoDel law
// against its sojourn, and returns what that shed. The law judges the
// dispatched item; each drop it calls for falls on shedLowest's victim,
// and when nothing sheddable is queued the dropping state ends.
func (a *Admission) dispatch(it *Item, now time.Time) []*Item {
	var shed []*Item
	sojourn, at := now.Sub(it.Enqueued), now.Sub(a.epoch)
	for a.law.Drop(sojourn, at, a.depth() > 0) {
		s := a.shedLowest()
		if s == nil {
			a.law.Stop()
			break
		}
		shed = append(shed, s)
	}
	a.dispatched[it.Tier]++
	a.observeDelay(it.Tier, sojourn)
	return shed
}

// pop returns the next item in strict tier order plus any items the CoDel
// controller shed on the way — the caller owes each shed item a rejection
// answer, so sheds surface to clients immediately instead of as silence —
// and the clock reading the pop was judged at. it is nil when nothing is
// queued. Items queued before Close are still handed out.
func (a *Admission) pop() (it *Item, shed []*Item, now time.Time) {
	for t := range a.tiers {
		if q := &a.tiers[t]; q.n > 0 {
			it = q.popFront()
			now = a.clock()
			return it, a.dispatch(it, now), now
		}
	}
	return nil, nil, now
}

// shedLowest removes the newest item of the lowest-priority non-empty
// tier above tier 0 — the work the ARTP priority model marks expendable,
// and within it the request that has invested the least wait. Tier 0
// (PrioHighest) is only ever tail-capped, mirroring "never discarded" in
// the transport.
func (a *Admission) shedLowest() *Item {
	for t := Tiers - 1; t > 0; t-- {
		if q := &a.tiers[t]; q.n > 0 {
			a.codelShed[t]++
			return q.popBack()
		}
	}
	return nil
}

// depth reports the total queued items.
func (a *Admission) depth() int {
	n := 0
	for i := range a.tiers {
		n += a.tiers[i].n
	}
	return n
}

func (a *Admission) observeDelay(tier int, d time.Duration) {
	if d < 0 {
		d = 0
	}
	if a.delayEWMA == 0 {
		a.delayEWMA = d
	} else {
		a.delayEWMA = (3*a.delayEWMA + d) / 4
	}
	if a.delayTier[tier] == 0 {
		a.delayTier[tier] = d
	} else {
		a.delayTier[tier] = (3*a.delayTier[tier] + d) / 4
	}
}

// queueDelayTier reports the smoothed sojourn of one tier's dispatched
// work — the wait a new request of that tier should expect, since
// higher-priority work jumps ahead of the global mix.
func (a *Admission) queueDelayTier(tier int) time.Duration {
	if tier < 0 || tier >= Tiers {
		return 0
	}
	return a.delayTier[tier]
}

// stats snapshots the counters.
func (a *Admission) stats() AdmissionStats {
	cp := func(s *[Tiers]int64) []int64 { return append([]int64(nil), s[:]...) }
	return AdmissionStats{
		Offered:    cp(&a.offered),
		Admitted:   cp(&a.admitted),
		TailDrop:   cp(&a.tailDrop),
		CoDelShed:  cp(&a.codelShed),
		Dispatched: cp(&a.dispatched),
	}
}
