package overload

import (
	"sync"
	"time"

	"marnet/internal/obs"
	"marnet/internal/queue/codel"
)

// Config assembles a Gate.
type Config struct {
	// Admission tunes the tiered queues and the queue-delay shedder.
	Admission AdmissionConfig
	// Ladder enables degradation of admitted work; the zero Ladder serves
	// everything at TierFull (queue caps, CoDel shedding and deadline
	// rejection still apply).
	Ladder Ladder
	// Safety scales the service-time estimate when judging whether a
	// request can finish inside its remaining budget (default 1.5: reject
	// only when even an optimistic run would not fit).
	Safety float64
	// Clock is the time source (default time.Now); it is also pushed into
	// Admission when that has none.
	Clock func() time.Time
	// Sleep is the poll pause WaitDrain uses between checks (default
	// time.Sleep). Tests driving the gate on a virtual clock inject a hook
	// that advances that clock, so drains resolve on virtual time instead
	// of stalling a wall-clock millisecond per poll.
	Sleep func(d time.Duration)
	// Recorder, when set, receives an EvOverloadVerdict flight-recorder
	// event for every refused request.
	Recorder *obs.FlightRecorder
}

// Verdict is the admission decision for one request.
type Verdict int

// Verdicts.
const (
	// Admit: the request entered a queue (from Admit) or is being handed
	// to a worker (from Next).
	Admit Verdict = iota + 1
	// RejectExpired: the propagated deadline had already passed on
	// arrival.
	RejectExpired
	// RejectQueueFull: the request's tier queue was at capacity.
	RejectQueueFull
	// RejectCannotFinish: the service-time estimate does not fit in the
	// request's remaining budget.
	RejectCannotFinish
	// RejectDraining: the server is draining; only already-admitted work
	// completes.
	RejectDraining
	// RejectShed: shed by the queue-delay controller or the ladder's
	// reject rung.
	RejectShed
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Admit:
		return "admit"
	case RejectExpired:
		return "expired"
	case RejectQueueFull:
		return "queue-full"
	case RejectCannotFinish:
		return "cannot-finish"
	case RejectDraining:
		return "draining"
	case RejectShed:
		return "shed"
	default:
		return "unknown-verdict"
	}
}

// Rejection pairs a refused item with why, so the serving layer can send
// the client an immediate, typed rejection instead of silence.
type Rejection struct {
	Item    *Item
	Verdict Verdict
}

// GateStats is a snapshot of everything the gate decided.
type GateStats struct {
	Admission AdmissionStats

	Admitted         int64 // requests that entered the queues
	Completed        int64 // requests a worker finished
	Degraded         int64 // completions served below TierFull
	ExpiredOnArrival int64 // deadline already expired when the request arrived
	ExpiredInQueue   int64 // deadline expired while queued, before dispatch
	CannotFinish     int64 // estimate did not fit the remaining budget
	RejectedDraining int64 // refused because the server was draining
	LadderRejected   int64 // refused by the ladder's reject rung at dispatch
}

// Gate is the assembled server-side admission controller: tiered bounded
// queues with queue-delay shedding, deadline enforcement (expired-on-
// arrival and cannot-finish-in-time), a degradation ladder, in-flight
// tracking, and the drain protocol.
//
// Serving-layer contract: Admit every arriving request; run workers in a
// loop around Next (or pump TryNext from completions); answer every
// Rejection immediately; call Done exactly once per item Next or TryNext
// returned. A goroutine that may itself run a request cheaply admits it
// with AdmitInline instead: when nothing is queued ahead of it, the
// request is handed straight back — no queue, no worker woken — and that
// goroutine owes its Done (or its refusal) as a worker would.
type Gate struct {
	cfg   Config
	adm   *Admission
	est   *Estimator
	clock func() time.Time
	sleep func(d time.Duration)

	mu           sync.Mutex
	draining     bool
	inflight     int
	admitted     int64
	completed    int64
	degraded     int64
	expArrival   int64
	expQueue     int64
	cannotFinish int64
	drainRejects int64
	ladderReject int64
}

// NewGate builds a gate.
func NewGate(cfg Config) *Gate {
	if cfg.Safety <= 0 {
		cfg.Safety = 1.5
	}
	cfg.Clock = clockOrNow(cfg.Clock)
	if cfg.Admission.Clock == nil {
		cfg.Admission.Clock = cfg.Clock
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Gate{
		cfg:   cfg,
		adm:   NewAdmission(cfg.Admission),
		est:   NewEstimator(DefaultEWMAAlpha),
		clock: cfg.Clock,
		sleep: cfg.Sleep,
	}
}

// recordVerdict emits one refusal to the flight recorder. Nil-safe and
// off the admit fast path: only rejections pay for it.
func (g *Gate) recordVerdict(v Verdict, it *Item) {
	if g.cfg.Recorder == nil {
		return
	}
	g.cfg.Recorder.Record(obs.EvOverloadVerdict, uint8(v), uint16(it.Method), 0,
		uint64(g.adm.QueueDelay().Microseconds()))
}

// Admit decides whether the request may enter the queues, and enqueues it
// when admitted. Rejections are cheap and immediate: they run before any
// decode or dispatch work is spent on the request.
func (g *Gate) Admit(it *Item) Verdict {
	v, _ := g.admit(it, false)
	return v
}

// AdmitInline is Admit for a caller that will serve the request on its own
// goroutine if nothing is queued ahead of it. Then the request skips the
// queue — dispatched at once and vetted as Next vets, with no parked
// worker woken for it — and inline is true: the request is the caller's
// exactly as an item Next returned is a worker's, to run and settle with
// Done when v is Admit, or to answer as refused when the vet said v.
// Otherwise it is queued or refused exactly as Admit would, and inline is
// false.
func (g *Gate) AdmitInline(it *Item) (v Verdict, inline bool) { return g.admit(it, true) }

func (g *Gate) admit(it *Item, inline bool) (Verdict, bool) {
	now := g.clock()
	g.mu.Lock()
	if g.draining {
		g.drainRejects++
		g.mu.Unlock()
		g.recordVerdict(RejectDraining, it)
		return RejectDraining, false
	}
	g.mu.Unlock()

	if !it.Deadline.IsZero() {
		remaining := it.Deadline.Sub(now)
		if remaining <= 0 {
			g.mu.Lock()
			g.expArrival++
			g.mu.Unlock()
			g.recordVerdict(RejectExpired, it)
			return RejectExpired, false
		}
		// Cannot-finish at admission: predicted wait (the smoothed queue
		// delay of this request's own tier — higher priorities jump the
		// global mix) plus the safety-scaled service estimate must fit
		// the remaining budget, or the work would be started only to be
		// discarded.
		if est, ok := g.est.Estimate(it.Method); ok {
			need := g.adm.QueueDelayTier(it.Tier) + time.Duration(g.cfg.Safety*float64(est))
			if need > remaining {
				g.mu.Lock()
				g.cannotFinish++
				g.mu.Unlock()
				g.recordVerdict(RejectCannotFinish, it)
				return RejectCannotFinish, false
			}
		}
	}
	taken := inline && g.adm.take(it, now)
	if !taken && !g.adm.offer(it, now) {
		g.recordVerdict(RejectQueueFull, it)
		return RejectQueueFull, false
	}
	g.mu.Lock()
	g.admitted++
	g.mu.Unlock()
	if !taken {
		return Admit, false
	}
	if run, rejected := g.vet(it, nil, now); run == nil {
		return rejected[0].Verdict, true
	}
	return Admit, true
}

// Next blocks until a runnable item is available, returning it plus every
// rejection decided along the way (queue-delay sheds, items that expired
// in the queue, items whose budget no longer fits). ok=false after Close;
// rejected may be non-empty even then. The returned item's Degrade field
// carries the ladder's response tier.
func (g *Gate) Next() (run *Item, rejected []Rejection, ok bool) { return g.next(true) }

// TryNext is Next without blocking: ok is false when no work is queued
// right now (rejections decided along the way may still be returned).
// Event-driven servers — the deterministic simulation dispatch mode in
// particular — pump the gate with TryNext from completion callbacks
// instead of parking worker goroutines in Next.
func (g *Gate) TryNext() (run *Item, rejected []Rejection, ok bool) { return g.next(false) }

func (g *Gate) next(wait bool) (run *Item, rejected []Rejection, ok bool) {
	for {
		it, shed, now, popOK := g.adm.pop(wait)
		for _, s := range shed {
			g.recordVerdict(RejectShed, s)
			rejected = append(rejected, Rejection{Item: s, Verdict: RejectShed})
		}
		if !popOK {
			return nil, rejected, false
		}
		if run, rejected = g.vet(it, rejected, now); run != nil {
			return run, rejected, true
		}
	}
}

// vet applies the dispatch-time checks (expired-in-queue,
// cannot-finish, ladder) to an item popped at now. It returns the item
// ready to run, or nil with the rejection appended.
func (g *Gate) vet(it *Item, rejected []Rejection, now time.Time) (*Item, []Rejection) {
	if !it.Deadline.IsZero() {
		remaining := it.Deadline.Sub(now)
		if remaining <= 0 {
			g.mu.Lock()
			g.expQueue++
			g.mu.Unlock()
			g.recordVerdict(RejectExpired, it)
			return nil, append(rejected, Rejection{Item: it, Verdict: RejectExpired})
		}
		if est, estOK := g.est.Estimate(it.Method); estOK {
			if time.Duration(g.cfg.Safety*float64(est)) > remaining {
				g.mu.Lock()
				g.cannotFinish++
				g.mu.Unlock()
				g.recordVerdict(RejectCannotFinish, it)
				return nil, append(rejected, Rejection{Item: it, Verdict: RejectCannotFinish})
			}
		}
	}
	if g.cfg.Ladder.Enabled() {
		switch tier := g.cfg.Ladder.Tier(g.adm.QueueDelay()); tier {
		case TierReject:
			g.mu.Lock()
			g.ladderReject++
			g.mu.Unlock()
			g.recordVerdict(RejectShed, it)
			return nil, append(rejected, Rejection{Item: it, Verdict: RejectShed})
		default:
			it.Degrade = tier
		}
	}
	g.mu.Lock()
	g.inflight++
	g.mu.Unlock()
	return it, rejected
}

// Done records the completion of an item returned by Next, feeding its
// measured service time into the estimator.
func (g *Gate) Done(it *Item, took time.Duration) {
	g.est.Observe(it.Method, took)
	g.mu.Lock()
	g.inflight--
	g.completed++
	if it.Degrade != TierFull && it.Degrade != 0 {
		g.degraded++
	}
	g.mu.Unlock()
}

// SetDraining switches the drain state: while draining, Admit refuses all
// new work but workers keep consuming the queues, so everything already
// accepted completes.
func (g *Gate) SetDraining(on bool) {
	g.mu.Lock()
	g.draining = on
	g.mu.Unlock()
}

// WaitDrain blocks until the queues are empty and no work is in flight,
// or the timeout elapses; it reports whether the drain completed. Callers
// normally SetDraining(true) first — otherwise new admissions can keep the
// gate busy indefinitely. Both the deadline and the poll pause run on the
// injected Clock/Sleep hooks: a gate constructed on a virtual clock drains
// (and times out) on virtual time, the same time base as every other
// decision it makes.
func (g *Gate) WaitDrain(timeout time.Duration) bool {
	deadline := g.clock().Add(timeout)
	for {
		g.mu.Lock()
		idle := g.inflight == 0
		g.mu.Unlock()
		if idle && g.adm.Depth() == 0 {
			return true
		}
		if g.clock().After(deadline) {
			return false
		}
		g.sleep(time.Millisecond)
	}
}

// QueueDelay exposes the smoothed queue delay (the ladder's load signal).
func (g *Gate) QueueDelay() time.Duration { return g.adm.QueueDelay() }

// Estimator exposes the per-method service-time estimator (servers may
// pre-warm it with known costs).
func (g *Gate) Estimator() *Estimator { return g.est }

// Health derives the probe state clients steer by: draining beats
// degraded beats healthy. Degraded means the ladder has left TierFull or
// the queue delay has reached twice codel.Target — overload is
// building even if nothing has been shed yet.
func (g *Gate) Health() Probe {
	g.mu.Lock()
	draining := g.draining
	g.mu.Unlock()
	if draining {
		return ProbeDraining
	}
	qd := g.adm.QueueDelay()
	if g.cfg.Ladder.Enabled() && g.cfg.Ladder.Tier(qd) != TierFull {
		return ProbeDegraded
	}
	if qd >= 2*codel.Target {
		return ProbeDegraded
	}
	return ProbeHealthy
}

// Close unblocks all Next callers. Queued items are dropped unanswered;
// drain first for a graceful stop.
func (g *Gate) Close() { g.adm.Close() }

// Stats snapshots the counters.
func (g *Gate) Stats() GateStats {
	st := GateStats{Admission: g.adm.Stats()}
	g.mu.Lock()
	st.Admitted = g.admitted
	st.Completed = g.completed
	st.Degraded = g.degraded
	st.ExpiredOnArrival = g.expArrival
	st.ExpiredInQueue = g.expQueue
	st.CannotFinish = g.cannotFinish
	st.RejectedDraining = g.drainRejects
	st.LadderRejected = g.ladderReject
	g.mu.Unlock()
	return st
}
