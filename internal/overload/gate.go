package overload

import (
	"sync"
	"time"

	"marnet/internal/obs"
	"marnet/internal/queue/codel"
)

// Config assembles a Gate.
type Config struct {
	// QueueCap bounds each tier's queue (default 128). The cap is the
	// hard backstop; CoDel shedding acts long before it fills.
	QueueCap int
	// Ladder enables degradation of admitted work; the zero Ladder serves
	// everything at TierFull (queue caps, CoDel shedding and deadline
	// rejection still apply).
	Ladder Ladder
	// Safety scales the service-time estimate when judging whether a
	// request can finish inside its remaining budget (default 1.5: reject
	// only when even an optimistic run would not fit).
	Safety float64
	// Clock is the time source of every decision, the queues' included
	// (default time.Now).
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
	// over to run (from Next).
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
	Completed        int64 // requests whose Done was called
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
// tracking, and the drain protocol. It is a state machine under one mutex
// and never blocks: each Admit, Next or Done takes that lock once.
//
// Serving-layer contract: Admit every arriving request, then pump: while
// the server has a free slot, call Next and run what it hands over, and
// when Next finds the queue empty, stop until the next admission or
// completion. Answer every Rejection immediately; call Done exactly once
// per item Next returned. A goroutine that may itself run a request cheaply
// admits it with AdmitInline instead: when nothing is queued ahead of it,
// the request is handed straight back — no queue, no slot taken — and that
// goroutine owes its Done (or its refusal) as a slot would.
type Gate struct {
	cfg Config
	est *Estimator

	mu           sync.Mutex // guards everything below, the queues included
	adm          *Admission
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
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 128
	}
	if cfg.Safety <= 0 {
		cfg.Safety = 1.5
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Gate{cfg: cfg, est: NewEstimator(), adm: newAdmission(cfg.QueueCap, cfg.Clock)}
}

// rejectLocked emits one refusal to the flight recorder (nil-safe, and
// only refusals pay for it) and returns its verdict.
func (g *Gate) rejectLocked(v Verdict, it *Item) Verdict {
	if g.cfg.Recorder != nil {
		g.cfg.Recorder.Record(obs.EvOverloadVerdict, uint8(v), uint16(it.Method), 0,
			uint64(g.adm.delayEWMA.Microseconds()))
	}
	return v
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
// queue — dispatched at once and vetted as Next vets, with no slot taken
// for it — and inline is true: the request is the caller's exactly as an
// item Next returned is, to run and settle with Done when v is Admit, or
// to answer as refused when the vet said v. Otherwise it is queued or
// refused exactly as Admit would, and inline is false.
func (g *Gate) AdmitInline(it *Item) (v Verdict, inline bool) { return g.admit(it, true) }

func (g *Gate) admit(it *Item, inline bool) (Verdict, bool) {
	now := g.cfg.Clock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		g.drainRejects++
		return g.rejectLocked(RejectDraining, it), false
	}
	if !it.Deadline.IsZero() {
		remaining := it.Deadline.Sub(now)
		if remaining <= 0 {
			g.expArrival++
			return g.rejectLocked(RejectExpired, it), false
		}
		// Cannot-finish at admission: predicted wait (the smoothed queue
		// delay of this request's own tier — higher priorities jump the
		// global mix) plus the safety-scaled service estimate must fit
		// the remaining budget, or the work would be started only to be
		// discarded.
		if est, ok := g.est.Estimate(it.Method); ok {
			need := g.adm.queueDelayTier(it.Tier) + time.Duration(g.cfg.Safety*float64(est))
			if need > remaining {
				g.cannotFinish++
				return g.rejectLocked(RejectCannotFinish, it), false
			}
		}
	}
	taken := inline && g.adm.take(it, now)
	if !taken && !g.adm.offer(it, now) {
		return g.rejectLocked(RejectQueueFull, it), false
	}
	g.admitted++
	if !taken {
		return Admit, false
	}
	return g.vetLocked(it, now), true
}

// Next hands over the next runnable item, with every rejection decided
// along the way (queue-delay sheds, items that expired in the queue, items
// whose budget no longer fits). It never blocks: ok is false when nothing
// runnable is queued, and rejected may be non-empty even then. The
// returned item's Degrade field carries the ladder's response tier.
func (g *Gate) Next() (run *Item, rejected []Rejection, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		it, shed, now := g.adm.pop()
		for _, s := range shed {
			rejected = append(rejected, Rejection{Item: s, Verdict: g.rejectLocked(RejectShed, s)})
		}
		if it == nil {
			return nil, rejected, false
		}
		if v := g.vetLocked(it, now); v != Admit {
			rejected = append(rejected, Rejection{Item: it, Verdict: v})
			continue
		}
		return it, rejected, true
	}
}

// vetLocked applies the dispatch-time checks (expired-in-queue,
// cannot-finish, ladder) to an item popped at now. It returns Admit, the
// item counted in flight, or the verdict that refused it.
func (g *Gate) vetLocked(it *Item, now time.Time) Verdict {
	if !it.Deadline.IsZero() {
		remaining := it.Deadline.Sub(now)
		if remaining <= 0 {
			g.expQueue++
			return g.rejectLocked(RejectExpired, it)
		}
		if est, ok := g.est.Estimate(it.Method); ok && time.Duration(g.cfg.Safety*float64(est)) > remaining {
			g.cannotFinish++
			return g.rejectLocked(RejectCannotFinish, it)
		}
	}
	if g.cfg.Ladder.Enabled() {
		tier := g.cfg.Ladder.Tier(g.adm.delayEWMA)
		if tier == TierReject {
			g.ladderReject++
			return g.rejectLocked(RejectShed, it)
		}
		it.Degrade = tier
	}
	g.inflight++
	return Admit
}

// Done records the completion of an item Next (or AdmitInline) handed
// over, feeding its measured service time into the estimator.
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
// new work but Next keeps handing out the queues, so everything already
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
	deadline := g.cfg.Clock().Add(timeout)
	for {
		g.mu.Lock()
		idle := g.inflight == 0 && g.adm.depth() == 0
		g.mu.Unlock()
		if idle {
			return true
		}
		if g.cfg.Clock().After(deadline) {
			return false
		}
		g.cfg.Sleep(time.Millisecond)
	}
}

// QueueDelay exposes the smoothed queue delay (the ladder's load signal).
func (g *Gate) QueueDelay() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.adm.delayEWMA
}

// Estimator exposes the per-method service-time estimator (servers may
// pre-warm it with known costs).
func (g *Gate) Estimator() *Estimator { return g.est }

// Health derives the probe state clients steer by: draining beats
// degraded beats healthy. Degraded means the ladder has left TierFull or
// the queue delay has reached twice codel.Target — overload is
// building even if nothing has been shed yet.
func (g *Gate) Health() Probe {
	g.mu.Lock()
	draining, qd := g.draining, g.adm.delayEWMA
	g.mu.Unlock()
	if draining {
		return ProbeDraining
	}
	if g.cfg.Ladder.Enabled() && g.cfg.Ladder.Tier(qd) != TierFull {
		return ProbeDegraded
	}
	if qd >= 2*codel.Target {
		return ProbeDegraded
	}
	return ProbeHealthy
}

// Close refuses every later admission as a full queue would. What is
// already queued stays for Next to hand out; drain first for a graceful
// stop.
func (g *Gate) Close() {
	g.mu.Lock()
	g.adm.closed = true
	g.mu.Unlock()
}

// Stats snapshots the counters.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GateStats{
		Admission:        g.adm.stats(),
		Admitted:         g.admitted,
		Completed:        g.completed,
		Degraded:         g.degraded,
		ExpiredOnArrival: g.expArrival,
		ExpiredInQueue:   g.expQueue,
		CannotFinish:     g.cannotFinish,
		RejectedDraining: g.drainRejects,
		LadderRejected:   g.ladderReject,
	}
}
