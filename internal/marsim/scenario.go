package marsim

import (
	"fmt"
	"time"

	"marnet/internal/simnet"
)

// Scenario wires one deterministic experiment together: a seeded
// simulator, its virtual clock, the in-memory network, and the event
// trace. Build the stack (hosts, servers, clients), script phases with
// At, register teardown with Defer and invariants with Check, then Run.
type Scenario struct {
	Name  string
	Seed  int64
	Sim   *simnet.Sim
	Clock *Clock
	Net   *Net
	Trace *Trace

	cleanups []func()
	checks   []func() error
}

// NewScenario creates a named scenario; the seed fixes every random
// decision (link loss, jitter, retry jitter), so
// one (name, seed) pair identifies exactly one trace.
func NewScenario(name string, seed int64) *Scenario {
	sim := simnet.New(seed)
	clock := NewClock(sim)
	trace := NewTrace(sim)
	return &Scenario{
		Name:  name,
		Seed:  seed,
		Sim:   sim,
		Clock: clock,
		Net:   NewNet(sim, trace),
		Trace: trace,
	}
}

// At schedules fn at an absolute virtual time.
func (s *Scenario) At(t time.Duration, fn func()) { s.Sim.ScheduleAt(t, fn) }

// Logf records a scenario-level event into the trace.
func (s *Scenario) Logf(format string, args ...any) { s.Trace.Logf(format, args...) }

// Defer registers teardown run (in LIFO order) when the horizon is
// reached — close clients before servers by deferring servers first.
func (s *Scenario) Defer(fn func()) { s.cleanups = append(s.cleanups, fn) }

// Check registers an invariant verified after teardown and drain.
func (s *Scenario) Check(fn func() error) { s.checks = append(s.checks, fn) }

// Run drives the simulation to the horizon, tears the stack down, drains
// every remaining event (in-flight packets land on closed endpoints and
// are accounted, cancelled timers evaporate), then verifies packet
// conservation and every registered invariant. The whole run executes on
// the calling goroutine.
func (s *Scenario) Run(horizon time.Duration) error {
	s.Logf("scenario %s seed=%d start", s.Name, s.Seed)
	if err := s.Sim.RunUntil(horizon); err != nil {
		return fmt.Errorf("marsim: scenario %s: %w", s.Name, err)
	}
	for i := len(s.cleanups) - 1; i >= 0; i-- {
		s.cleanups[i]()
	}
	if err := s.Sim.Run(); err != nil {
		return fmt.Errorf("marsim: scenario %s drain: %w", s.Name, err)
	}
	s.Logf("scenario %s end", s.Name)
	if err := s.Net.CheckConservation(); err != nil {
		return err
	}
	for _, c := range s.checks {
		if err := c(); err != nil {
			return fmt.Errorf("marsim: scenario %s: %w", s.Name, err)
		}
	}
	return nil
}
