package overload

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source so every admission decision in
// these tests is deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestAdmissionPriorityOrder(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(128, clk.Now)
	for _, tier := range []int{2, 0, 3, 1, 0} {
		if !a.Offer(&Item{Tier: tier, Job: tier}) {
			t.Fatalf("offer tier %d refused", tier)
		}
	}
	want := []int{0, 0, 1, 2, 3}
	for i, w := range want {
		it, shed, ok := a.TryPop()
		if !ok || len(shed) != 0 {
			t.Fatalf("pop %d: ok=%v shed=%d", i, ok, len(shed))
		}
		if it.Tier != w {
			t.Fatalf("pop %d: tier = %d, want %d", i, it.Tier, w)
		}
	}
}

func TestAdmissionTailDrop(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(2, clk.Now)
	if !a.Offer(&Item{Tier: 1}) || !a.Offer(&Item{Tier: 1}) {
		t.Fatal("first two offers refused")
	}
	if a.Offer(&Item{Tier: 1}) {
		t.Fatal("offer above QueueCap admitted")
	}
	if a.Offer(&Item{Tier: 2}) != true {
		t.Fatal("other tier should have its own cap")
	}
	st := a.stats()
	if st.TailDrop[1] != 1 || st.Admitted[1] != 2 {
		t.Fatalf("tier1 tailDrop=%d admitted=%d", st.TailDrop[1], st.Admitted[1])
	}
}

// TestAdmissionCoDelShedsLowestTier drives a standing queue delay far past
// the CoDel target and checks that shedding (a) happens, (b) falls on the
// lowest tier first, and (c) never touches the protected top tier.
func TestAdmissionCoDelShedsLowestTier(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(100, clk.Now)
	// A backlog across three tiers, all enqueued at t0.
	for i := 0; i < 12; i++ {
		a.Offer(&Item{Tier: 0})
		a.Offer(&Item{Tier: 1})
		a.Offer(&Item{Tier: 3})
	}
	// Serve slowly: 50 ms per dispatch, so sojourn exceeds the target
	// immediately and stays there for many intervals.
	dispatched := 0
	for a.depth() > 0 {
		clk.Advance(50 * time.Millisecond)
		if _, _, ok := a.TryPop(); !ok {
			break
		}
		dispatched++
	}
	st := a.stats()
	if st.CoDelShed[3] == 0 {
		t.Fatal("standing queue delay never shed the lowest tier")
	}
	if st.CoDelShed[0] != 0 {
		t.Fatalf("protected tier 0 was CoDel-shed %d times", st.CoDelShed[0])
	}
	// Tier 3 must bear at least as much shedding as tier 1: sheds walk
	// up from the bottom.
	if st.CoDelShed[1] > 0 && st.CoDelShed[3] < 12 {
		t.Fatalf("tier1 shed (%d) before tier3 was exhausted (%d/12)",
			st.CoDelShed[1], st.CoDelShed[3])
	}
	if got := st.Dispatched[0]; got != 12 {
		t.Fatalf("tier0 dispatched = %d, want all 12", got)
	}
	_ = dispatched
}

// TestAdmissionResumesDropCadence pins RFC 8289 §5.4 on the gate's queue: a
// shedding episode that opens soon after the last one ended resumes at the
// last episode's drop count — delta, which counts the new episode's entry
// drop — rather than one step slower.
func TestAdmissionResumesDropCadence(t *testing.T) {
	clk := newFakeClock()
	start := clk.Now()
	a := newAdmission(128, clk.Now)
	for i := 0; i < 100; i++ {
		a.Offer(&Item{Tier: 3}) // the victims
	}
	var sheds []time.Duration // shed instants since start
	pop := func() {
		_, shed, ok := a.TryPop()
		if !ok {
			t.Fatal("nothing to pop")
		}
		for range shed {
			sheds = append(sheds, clk.Now().Sub(start))
		}
	}
	// A standing queue: tier-1 work offered every millisecond is
	// dispatched six milliseconds later.
	for i := 0; i < 6; i++ {
		clk.Advance(time.Millisecond)
		a.Offer(&Item{Tier: 1})
	}
	standing := func(until time.Duration) {
		for clk.Now().Sub(start) < until {
			clk.Advance(time.Millisecond)
			a.Offer(&Item{Tier: 1})
			pop()
		}
	}
	standing(350 * time.Millisecond)
	// The dip: a tier-0 request jumps the queue and leaves at once.
	clk.Advance(time.Millisecond)
	a.Offer(&Item{Tier: 0})
	pop()
	standing(600 * time.Millisecond)

	want := []time.Duration{
		// Episode 1 opens one Interval after the first standing dispatch
		// (7 ms) and sheds Interval/√count apart: 207 + 70.7 → 278,
		// + 57.7 → 336; it ends at the dip (351 ms) with count 4.
		107, 207, 278, 336,
		// The queue stands again from 352 ms, so episode 2 opens at
		// 452 ms, 67 ms after episode 1's next shed was due — inside 16
		// intervals, so count = delta = 4: 452 + 100/√4 = 502, + 100/√5
		// → 547, + 100/√6 → 588. Resuming at delta − 1 = 3 sheds at 510
		// and 560 instead.
		452, 502, 547, 588,
	}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if !reflect.DeepEqual(sheds, want) {
		t.Fatalf("sheds at %v, want %v", sheds, want)
	}
}

func TestEstimatorEWMA(t *testing.T) {
	e := NewEstimator()
	if _, ok := e.Estimate(1); ok {
		t.Fatal("estimate before any observation")
	}
	e.Observe(1, 10*time.Millisecond)
	if d, _ := e.Estimate(1); d != 10*time.Millisecond {
		t.Fatalf("first observation not adopted: %v", d)
	}
	e.Observe(1, 20*time.Millisecond)
	if d, _ := e.Estimate(1); d != 12*time.Millisecond {
		t.Fatalf("EWMA = %v, want 12ms", d)
	}
	if _, ok := e.Estimate(2); ok {
		t.Fatal("methods must not share estimates")
	}
}

func TestLadderTiers(t *testing.T) {
	l := DefaultLadder(100 * time.Millisecond)
	cases := []struct {
		load time.Duration
		want Tier
	}{
		{0, TierFull},
		{24 * time.Millisecond, TierFull},
		{25 * time.Millisecond, TierFeatures},
		{50 * time.Millisecond, TierCached},
		{100 * time.Millisecond, TierReject},
		{time.Second, TierReject},
	}
	for _, c := range cases {
		if got := l.Tier(c.load); got != c.want {
			t.Errorf("Tier(%v) = %v, want %v", c.load, got, c.want)
		}
	}
	var zero Ladder
	if zero.Enabled() || zero.Tier(time.Hour) != TierFull {
		t.Error("zero ladder must never degrade")
	}
}

func TestGateExpiredOnArrival(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(Config{Clock: clk.Now})
	defer g.Close()
	past := clk.Now().Add(-time.Millisecond)
	if v := g.Admit(&Item{Tier: 0, Deadline: past}); v != RejectExpired {
		t.Fatalf("verdict = %v, want expired", v)
	}
	if st := g.Stats(); st.ExpiredOnArrival != 1 {
		t.Fatalf("ExpiredOnArrival = %d", st.ExpiredOnArrival)
	}
}

func TestGateExpiredInQueue(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(Config{Clock: clk.Now})
	defer g.Close()
	doomed := &Item{Tier: 1, Deadline: clk.Now().Add(5 * time.Millisecond)}
	healthy := &Item{Tier: 1, Deadline: clk.Now().Add(time.Hour)}
	if g.Admit(doomed) != Admit || g.Admit(healthy) != Admit {
		t.Fatal("admissions refused")
	}
	clk.Advance(10 * time.Millisecond) // doomed expires while queued
	run, rejected, ok := g.Next()
	if !ok || run != healthy {
		t.Fatalf("Next: run=%v ok=%v", run, ok)
	}
	if len(rejected) != 1 || rejected[0].Item != doomed || rejected[0].Verdict != RejectExpired {
		t.Fatalf("rejected = %+v", rejected)
	}
	if st := g.Stats(); st.ExpiredInQueue != 1 {
		t.Fatalf("ExpiredInQueue = %d", st.ExpiredInQueue)
	}
	g.Done(run, time.Millisecond)
}

func TestGateCannotFinish(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(Config{Clock: clk.Now})
	defer g.Close()
	g.Estimator().Observe(7, 50*time.Millisecond)
	// 10 ms of budget cannot hold 1.5 x 50 ms of estimated service.
	v := g.Admit(&Item{Tier: 0, Method: 7, Deadline: clk.Now().Add(10 * time.Millisecond)})
	if v != RejectCannotFinish {
		t.Fatalf("verdict = %v, want cannot-finish", v)
	}
	// An unknown method must be admitted and learned instead.
	if v := g.Admit(&Item{Tier: 0, Method: 8, Deadline: clk.Now().Add(10 * time.Millisecond)}); v != Admit {
		t.Fatalf("unknown-method verdict = %v, want admit", v)
	}
	if st := g.Stats(); st.CannotFinish != 1 {
		t.Fatalf("CannotFinish = %d", st.CannotFinish)
	}
}

func TestGateDrainProtocol(t *testing.T) {
	clk := newFakeClock()
	// Sleep advances the same fake clock WaitDrain reads its deadline
	// from, so both WaitDrain outcomes below resolve on virtual time.
	// (WaitDrain once read time.Now directly and this test only passed
	// because real milliseconds crept by during the poll sleeps.)
	g := NewGate(Config{Clock: clk.Now, Sleep: clk.Advance})
	defer g.Close()
	if g.Health() != ProbeHealthy {
		t.Fatalf("health = %v, want healthy", g.Health())
	}
	accepted := &Item{Tier: 0, Deadline: clk.Now().Add(time.Hour)}
	if g.Admit(accepted) != Admit {
		t.Fatal("admission refused")
	}
	g.SetDraining(true)
	if g.Health() != ProbeDraining {
		t.Fatalf("health = %v, want draining", g.Health())
	}
	if v := g.Admit(&Item{Tier: 0}); v != RejectDraining {
		t.Fatalf("verdict while draining = %v", v)
	}
	// Already-admitted work still dispatches and completes.
	run, _, ok := g.Next()
	if !ok || run != accepted {
		t.Fatal("draining gate must still dispatch admitted work")
	}
	if g.WaitDrain(5 * time.Millisecond) {
		t.Fatal("drain reported complete with work in flight")
	}
	g.Done(run, time.Millisecond)
	if !g.WaitDrain(time.Second) {
		t.Fatal("drain did not complete after the last Done")
	}
	st := g.Stats()
	if st.Admitted != 1 || st.Completed != 1 || st.RejectedDraining != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGateLadderDegradesDispatch(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(Config{
		Clock:  clk.Now,
		Ladder: Ladder{DegradeAt: 10 * time.Millisecond, CacheAt: 40 * time.Millisecond, RejectAt: 100 * time.Millisecond},
	})
	defer g.Close()
	// Build a standing queue delay: items sit 20 ms before dispatch.
	for i := 0; i < 8; i++ {
		if g.Admit(&Item{Tier: 1}) != Admit {
			t.Fatal("admission refused")
		}
	}
	var tiers []Tier
	for i := 0; i < 8; i++ {
		clk.Advance(20 * time.Millisecond)
		run, rejected, ok := g.Next()
		if !ok {
			t.Fatal("Next found nothing runnable with work queued")
		}
		for range rejected {
			// CoDel sheds count as rejections; ignore here.
		}
		if run == nil {
			break
		}
		tiers = append(tiers, run.Degrade)
		g.Done(run, time.Millisecond)
		if g.Depth() == 0 {
			break
		}
	}
	degraded := false
	for _, tr := range tiers {
		if tr != TierFull {
			degraded = true
		}
	}
	if !degraded {
		t.Fatalf("ladder never degraded under 20 ms standing delay: %v", tiers)
	}
	if g.Health() == ProbeHealthy {
		t.Error("health still healthy with ladder active")
	}
}

// AdmitInline hands a request back only when a pop would have handed over
// exactly that request — nothing of its tier or a higher one queued — and
// counts it as an admission plus a dispatch. It is never queued: the next
// thing Next hands over is the next request that was.
func TestAdmitInlineTakesOnlyFirstInLine(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(Config{Clock: clk.Now})
	defer g.Close()

	first := &Item{Tier: 1}
	if v, inline := g.AdmitInline(first); v != Admit || !inline {
		t.Fatalf("AdmitInline on empty queues = %v, inline %v; want admit, inline", v, inline)
	}
	if g.Inflight() != 1 || g.Depth() != 0 {
		t.Fatalf("inflight %d, depth %d after an inline admission; want 1, 0", g.Inflight(), g.Depth())
	}
	if run, _, ok := g.Next(); ok {
		t.Fatalf("Next handed over %+v after an inline admission; want nothing", run)
	}
	g.Done(first, time.Microsecond)

	queued := &Item{Tier: 1}
	if g.Admit(queued) != Admit {
		t.Fatal("admission refused")
	}
	if run, _, _ := g.Next(); run != queued {
		t.Fatalf("Next handed over %+v, want the queued item, not the inline one", run)
	}
	g.Done(queued, time.Microsecond)

	// A tier-2 item waits in the queue: tier 1 jumps it, tier 3 does not.
	if g.Admit(&Item{Tier: 2}) != Admit {
		t.Fatal("admission refused")
	}
	if _, inline := g.AdmitInline(&Item{Tier: 3}); inline {
		t.Error("a tier-3 request was handed back past a queued tier-2 one")
	}
	if v, inline := g.AdmitInline(&Item{Tier: 1}); v != Admit || !inline {
		t.Errorf("a tier-1 request behind only tier 2 = %v, inline %v; want admit, inline", v, inline)
	}
	if _, inline := g.AdmitInline(&Item{Tier: 2}); inline {
		t.Error("a tier-2 request was handed back past a queued one of its own tier")
	}

	st := g.Stats()
	if st.Admitted != 6 || st.Admission.Dispatched[1] != 3 || st.Admission.Admitted[2] != 2 || st.Admission.Admitted[3] != 1 {
		t.Fatalf("stats %+v: want 6 admitted, three tier-1 dispatches, two tier-2 and one tier-3 admissions", st)
	}
}

// TestWaitDrainVirtualClock pins WaitDrain to the injected clock: a one-
// hour drain timeout resolves in milliseconds of real time when the Sleep
// hook advances the virtual clock in ten-minute jumps — only possible if
// both the deadline arithmetic and the polling pause run on the hooks
// rather than the system clock.
func TestWaitDrainVirtualClock(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(Config{
		Clock: clk.Now,
		Sleep: func(time.Duration) { clk.Advance(10 * time.Minute) },
	})
	defer g.Close()
	if g.Admit(&Item{Tier: 0}) != Admit {
		t.Fatal("admission refused")
	}
	start := time.Now()
	if g.WaitDrain(time.Hour) {
		t.Fatal("drain reported complete with an item still queued")
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Fatalf("one-hour virtual timeout took %v of real time", real)
	}
}

// TestGateConcurrent exercises the gate from many goroutines so the race
// detector sees the real locking pattern: producers admitting, consumers
// polling the non-blocking Next, a drainer flipping state.
func TestGateConcurrent(t *testing.T) {
	g := NewGate(Config{})
	var wg sync.WaitGroup
	var consumersDone sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		consumersDone.Add(1)
		go func() {
			defer consumersDone.Done()
			for {
				if run, _, ok := g.Next(); ok {
					g.Done(run, 10*time.Microsecond)
					continue
				}
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	for p := 0; p < 8; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				it := &Item{Tier: p % 4, Method: uint8(p), Deadline: time.Now().Add(time.Second)}
				if p%2 == 0 {
					g.Admit(it)
				} else if v, inline := g.AdmitInline(it); v == Admit && inline {
					g.Done(it, 10*time.Microsecond) // the producer served it
				}
			}
		}()
	}
	wg.Wait()
	g.SetDraining(true)
	if !g.WaitDrain(5 * time.Second) {
		t.Fatal("drain did not complete")
	}
	close(stop)
	consumersDone.Wait()
	g.Close()
	st := g.Stats()
	if st.Completed == 0 {
		t.Fatal("nothing completed")
	}
	var shed int64
	for _, n := range st.Admission.CoDelShed {
		shed += n
	}
	if st.Completed+st.ExpiredInQueue+st.CannotFinish+st.LadderRejected+shed != st.Admitted {
		t.Fatalf("admitted work unaccounted for: %+v", st)
	}
}

// At light load a tier's depth oscillates between 0 and 1. The queue must
// settle into storage it owns: an Offer/TryPop cycle allocates nothing
// beyond the caller's Item (a slice queue advanced with q[1:] reallocated
// once per offer), and the same holds for the gate's Admit/Next/Done
// and AdmitInline/Done.
func TestAdmissionCycleZeroAlloc(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(128, clk.Now)
	items := []*Item{{Tier: 0}, {Tier: 2}, {Tier: 3}}
	n := 0
	cycle := func() {
		it := items[n%len(items)]
		n++
		if !a.Offer(it) {
			t.Fatal("offer refused at depth 0")
		}
		if got, shed, ok := a.TryPop(); !ok || got != it || len(shed) != 0 {
			t.Fatalf("TryPop = %v, %d shed, ok=%v", got, len(shed), ok)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("Offer/TryPop at depth 0<->1: %.2f allocs per cycle, want 0", allocs)
	}

	g := NewGate(Config{Clock: clk.Now})
	gateCycle := func() {
		it := items[n%len(items)]
		n++
		it.Deadline = clk.Now().Add(time.Hour)
		if v := g.Admit(it); v != Admit {
			t.Fatalf("Admit = %v", v)
		}
		run, rejected, ok := g.Next()
		if !ok || run != it || len(rejected) != 0 {
			t.Fatalf("Next = %v, %d rejected, ok=%v", run, len(rejected), ok)
		}
		g.Done(run, time.Millisecond)
	}
	gateCycle()
	if allocs := testing.AllocsPerRun(1000, gateCycle); allocs != 0 {
		t.Errorf("Admit/Next/Done at depth 0<->1: %.2f allocs per cycle, want 0", allocs)
	}

	inlineCycle := func() {
		it := items[n%len(items)]
		n++
		it.Deadline = clk.Now().Add(time.Hour)
		if v, inline := g.AdmitInline(it); v != Admit || !inline {
			t.Fatalf("AdmitInline = %v, inline %v", v, inline)
		}
		g.Done(it, time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(1000, inlineCycle); allocs != 0 {
		t.Errorf("AdmitInline/Done: %.2f allocs per cycle, want 0", allocs)
	}
}

// The ring behind each tier keeps FIFO order through wrap-around, sheds
// from the back, and can be filled to its capacity and drained again.
func TestItemRingOrder(t *testing.T) {
	r := itemRing{buf: make([]*Item, 8)}
	var model []int // the same queue as a plain slice
	next := 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			r.push(&Item{Method: uint8(next)})
			model = append(model, next)
			next++
		}
	}
	pop := func(k int) {
		for i := 0; i < k; i++ {
			if it := r.popFront(); int(it.Method) != model[0] {
				t.Fatalf("popFront = %d, want %d", it.Method, model[0])
			}
			model = model[1:]
		}
	}
	push(5)
	pop(3)
	push(6) // wraps; the ring is full
	pop(4)
	if it := r.popBack(); int(it.Method) != model[len(model)-1] {
		t.Fatalf("popBack = %d, want %d", it.Method, model[len(model)-1])
	}
	model = model[:len(model)-1]
	push(5) // full again, head mid-buffer
	pop(len(model))
	if r.n != 0 {
		t.Fatalf("ring holds %d items after draining the model", r.n)
	}
	for i, slot := range r.buf {
		if slot != nil {
			t.Errorf("slot %d still holds an item after the drain", i)
		}
	}
}
