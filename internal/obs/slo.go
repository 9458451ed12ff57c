package obs

// The SLO engine turns per-frame deadline verdicts into an erosion
// signal. An aggregate histogram can say "p99 is bad"; the SLO engine
// says "this session's deadline-hit objective is burning error budget N×
// faster than sustainable, on both a fast and a slow window" — the SRE
// multi-window burn-rate rule — and that verdict is what arms the flight
// recorder, so black-box capture fires on trends, not only on single
// misses. Everything runs on the injected clock: an SLO on marsim virtual
// time evaluates, triggers and reports deterministically.

import (
	"fmt"
	"sync"
	"time"

	"marnet/internal/vclock"
)

// SLOConfig tunes one objective.
type SLOConfig struct {
	// Name labels the objective (e.g. "session-42" or "global").
	Name string
	// Objective is the target hit ratio in (0,1) (default 0.99: at most
	// 1% of frames may miss their deadline).
	Objective float64
	// Slot is the sliding-window bucket granularity (default 1s; marsim
	// scenarios use finer slots because their phases last seconds).
	Slot time.Duration
	// FastWindow and SlowWindow are the two burn-rate horizons (defaults
	// 5s and 60s). The fast window catches sharp erosion quickly; the
	// slow window keeps a brief blip from paging.
	FastWindow, SlowWindow time.Duration
	// FastBurn and SlowBurn are the trigger thresholds: both windows'
	// burn rates must exceed their threshold simultaneously (defaults 10
	// and 2 — "we are burning a day's error budget in ~2 hours, and it is
	// still happening").
	FastBurn, SlowBurn float64
	// MinSamples is the fast-window observation floor below which no
	// trigger fires (default 20): one missed frame out of two is not a
	// trend.
	MinSamples int
	// Cooldown is the minimum spacing between triggers (default
	// FastWindow), bounding capture churn while erosion persists.
	Cooldown time.Duration
	// Clock supplies time (default system; marsim injects virtual time).
	Clock vclock.Clock
	// OnTrigger observes each burn-rate trigger, without SLO locks held —
	// the hook that freezes a flight recorder.
	OnTrigger func(SLOTrigger)
	// Parent, when set, receives every observation too: per-session SLOs
	// chain into a global one.
	Parent *SLO
}

// SLO engine defaults.
const (
	DefaultSLOObjective  = 0.99
	DefaultSLOSlot       = time.Second
	DefaultSLOFastWindow = 5 * time.Second
	DefaultSLOSlowWindow = 60 * time.Second
	DefaultSLOFastBurn   = 10.0
	DefaultSLOSlowBurn   = 2.0
	DefaultSLOMinSamples = 20
)

// SLOTrigger describes one burn-rate alert.
type SLOTrigger struct {
	Name               string
	At                 time.Duration // since the SLO's epoch
	FastBurn, SlowBurn float64
	FastFrames         int64 // observations inside the fast window
	SlowFrames         int64
	Ordinal            int64 // 1 for the first trigger, 2 for the next, ...
}

// String renders the trigger for traces.
func (t SLOTrigger) String() string {
	return fmt.Sprintf("slo %s trigger#%d at=+%dus fast=%.2f slow=%.2f fastN=%d slowN=%d",
		t.Name, t.Ordinal, t.At.Microseconds(), t.FastBurn, t.SlowBurn, t.FastFrames, t.SlowFrames)
}

// sloSlot is one time bucket of the sliding window.
type sloSlot struct {
	idx          int64 // slot ordinal since epoch; -1 = never used
	hits, misses int64
}

// SLO is a sliding-window deadline-hit-rate objective with multi-window
// burn-rate evaluation. A nil *SLO ignores Observe; all methods are
// nil-safe.
type SLO struct {
	cfg   SLOConfig
	clock vclock.Clock
	epoch time.Time
	nfast int64 // fast window length in slots
	nslow int64 // slow window length in slots (= len(slots))

	mu          sync.Mutex
	slots       []sloSlot
	triggers    int64
	trigOnce    bool
	lastTrigger time.Duration
}

// NewSLO builds the objective. Window lengths are rounded up to whole
// slots.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = DefaultSLOObjective
	}
	if cfg.Slot <= 0 {
		cfg.Slot = DefaultSLOSlot
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = DefaultSLOFastWindow
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = DefaultSLOSlowWindow
	}
	if cfg.SlowWindow < cfg.FastWindow {
		cfg.SlowWindow = cfg.FastWindow
	}
	if cfg.FastBurn <= 0 {
		cfg.FastBurn = DefaultSLOFastBurn
	}
	if cfg.SlowBurn <= 0 {
		cfg.SlowBurn = DefaultSLOSlowBurn
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = DefaultSLOMinSamples
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = cfg.FastWindow
	}
	clock := vclock.OrSystem(cfg.Clock)
	slotsOf := func(w time.Duration) int64 {
		n := int64((w + cfg.Slot - 1) / cfg.Slot)
		if n < 1 {
			n = 1
		}
		return n
	}
	s := &SLO{
		cfg:   cfg,
		clock: clock,
		epoch: clock.Now(),
		nfast: slotsOf(cfg.FastWindow),
		nslow: slotsOf(cfg.SlowWindow),
	}
	s.slots = make([]sloSlot, s.nslow)
	for i := range s.slots {
		s.slots[i].idx = -1
	}
	return s
}

// Observe folds one frame verdict in (hit = the frame met its deadline),
// re-evaluates the burn rates, fires OnTrigger when both windows exceed
// their thresholds outside the cooldown, and forwards the observation to
// the parent.
func (s *SLO) Observe(hit bool) {
	if s == nil {
		return
	}
	now := s.clock.Since(s.epoch)
	s.mu.Lock()
	idx := int64(now / s.cfg.Slot)
	sl := &s.slots[idx%s.nslow]
	if sl.idx != idx {
		sl.idx, sl.hits, sl.misses = idx, 0, 0
	}
	if hit {
		sl.hits++
	} else {
		sl.misses++
	}
	var trig SLOTrigger
	fire := false
	if !hit { // burn can only start (or worsen) on a miss
		fastBurn, fastN := s.burnLocked(idx, s.nfast)
		slowBurn, slowN := s.burnLocked(idx, s.nslow)
		if fastN >= int64(s.cfg.MinSamples) &&
			fastBurn >= s.cfg.FastBurn && slowBurn >= s.cfg.SlowBurn &&
			(!s.trigOnce || now-s.lastTrigger >= s.cfg.Cooldown) {
			s.triggers++
			s.trigOnce, s.lastTrigger = true, now
			trig = SLOTrigger{
				Name: s.cfg.Name, At: now,
				FastBurn: fastBurn, SlowBurn: slowBurn,
				FastFrames: fastN, SlowFrames: slowN,
				Ordinal: s.triggers,
			}
			fire = true
		}
	}
	hook := s.cfg.OnTrigger
	s.mu.Unlock()
	if fire && hook != nil {
		hook(trig)
	}
	s.cfg.Parent.Observe(hit)
}

// burnLocked computes the burn rate over the last n slots ending at slot
// cur (inclusive): observed miss ratio divided by the objective's allowed
// miss ratio. Returns the burn and the window's observation count.
func (s *SLO) burnLocked(cur, n int64) (float64, int64) {
	lo := cur - n + 1
	var hits, misses int64
	for i := range s.slots {
		if s.slots[i].idx >= lo && s.slots[i].idx <= cur {
			hits += s.slots[i].hits
			misses += s.slots[i].misses
		}
	}
	total := hits + misses
	if total == 0 {
		return 0, 0
	}
	allowed := 1 - s.cfg.Objective
	return (float64(misses) / float64(total)) / allowed, total
}

// Triggers reports how many burn-rate alerts have fired.
func (s *SLO) Triggers() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.triggers
}
