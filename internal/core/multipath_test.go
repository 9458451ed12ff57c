package core_test

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

// Section VI-D's behaviours, held by a wire.PathSet: the client attaches
// over several uplinks into one PathRouter'd server, probes every path,
// and routes each frame onto a live one.

var (
	wifi = simnet.Hop(10e6, 5*time.Millisecond)
	lte  = simnet.Hop(5e6, 20*time.Millisecond)
)

const probeEvery = 50 * time.Millisecond // the PathSet default

type pathEvent struct {
	path  string
	state wire.PathState
	at    time.Duration
}

// multipath is a client over one uplink per spec ("path0", "path1", ...)
// into a server answering over a 10 Mb/s, 5 ms downlink.
type multipath struct {
	sim    *simnet.Sim
	ups    []*simnet.Link
	events []pathEvent
	*marsim.LinkSession
}

func newMultipath(t *testing.T, seed int64, ps wire.PathSetConfig, streams []wire.StreamSpec, ups ...simnet.PathSpec) *multipath {
	t.Helper()
	m := &multipath{sim: simnet.New(seed)}
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	handlers := make([]simnet.Handler, len(ups))
	for i, sp := range ups {
		m.ups = append(m.ups, simnet.NewLink(m.sim, sp.Rate, sp.Delay, serverMux, sp.Opts...))
		handlers[i] = m.ups[i]
	}
	ps.OnPathState = func(path string, st wire.PathState) { m.events = append(m.events, pathEvent{path, st, m.sim.Now()}) }
	s, err := marsim.DialPaths(m.sim, 1, simnet.NewLink(m.sim, 10e6, 5*time.Millisecond, clientMux), clientMux, serverMux,
		ps, wire.Config{StartBudget: 2e6, Streams: streams}, handlers...)
	if err != nil {
		t.Fatal(err)
	}
	m.LinkSession = s
	return m
}

// data reports the data frames path i has carried: all it sent but probes.
func (m *multipath) data(i int) int64 {
	p := m.Paths.Stats().Paths[i]
	return p.SentFrames - p.ProbesSent
}

// at runs fn at virtual time t.
func (m *multipath) at(t time.Duration, fn func()) { m.sim.ScheduleAt(t, fn) }

// verdict is when path first entered state at or after from (0: never).
func (m *multipath) verdict(path string, state wire.PathState, from time.Duration) time.Duration {
	for _, e := range m.events {
		if e.path == path && e.state == state && e.at >= from {
			return e.at
		}
	}
	return 0
}

var bulk = []wire.StreamSpec{{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioNoDelay, Rate: 1e6}}

func TestMultipathFailoverEndToEnd(t *testing.T) {
	// Two paths to the same server; kill path 0 mid-run; traffic must
	// continue over path 1 and delivery must keep happening.
	m := newMultipath(t, 31, wire.PathSetConfig{}, []wire.StreamSpec{
		{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioNoDiscard, Rate: 1e6},
	}, wifi, lte)
	m.at(2*time.Second, func() { m.ups[0].SetLoss(1) })
	drive(m.sim, m.Client, 1, 400, 500, 10*time.Millisecond)
	run(t, m.sim, 6*time.Second)
	if got := m.data(1); got < 150 {
		t.Errorf("fallback path carried %d data frames", got)
	}
	if got := m.Tally.Stream(1).Delivered; got < 380 {
		t.Errorf("delivered %d/400 across failover", got)
	}
}

// TestMultipathFailsOverWithinProbeInterval: a path that goes silent is
// declared down within ProbeMiss+1 probe intervals (the default two misses)
// and the traffic moves to the backup; once the path answers a probe again
// it is preferred again.
func TestMultipathFailsOverWithinProbeInterval(t *testing.T) {
	m := newMultipath(t, 33, wire.PathSetConfig{}, bulk, wifi, lte)
	drive(m.sim, m.Client, 1, 400, 500, 10*time.Millisecond)
	m.at(2*time.Second, func() { m.ups[0].SetLoss(1) })
	m.at(3*time.Second, func() { m.ups[0].SetLoss(0) })
	var onLTE, onWiFi [2]int64
	m.at(2200*time.Millisecond, func() { onLTE[0] = m.data(1) })
	m.at(2900*time.Millisecond, func() { onLTE[1] = m.data(1) })
	m.at(3500*time.Millisecond, func() { onWiFi[0] = m.data(0) })
	m.at(3900*time.Millisecond, func() { onWiFi[1] = m.data(0) })
	run(t, m.sim, 5*time.Second)

	down := m.verdict("path0", wire.PathDown, 2*time.Second)
	if down == 0 || down-2*time.Second > 3*probeEvery {
		t.Fatalf("silent path declared down at %v, want within %v of the outage at 2s", down, 3*probeEvery)
	}
	if got := onLTE[1] - onLTE[0]; got < 63 {
		t.Errorf("backup carried %d of the 70 frames sent between 2.2 s and 2.9 s", got)
	}
	if up := m.verdict("path0", wire.PathUp, 3*time.Second); up == 0 || up-3*time.Second > 2*probeEvery {
		t.Errorf("healed path back up at %v, want within %v of 3s", up, 2*probeEvery)
	}
	if got := onWiFi[1] - onWiFi[0]; got < 36 {
		t.Errorf("recovered path carried %d of the 40 frames sent between 3.5 s and 3.9 s", got)
	}
}

// TestMultipathChurnNeverStarves flaps the two paths dark and lit in a
// seeded pattern, never both at once: handover churn must never silence
// the sender — best-effort frames arrive in every half second, and every
// critical frame arrives.
func TestMultipathChurnNeverStarves(t *testing.T) {
	m := newMultipath(t, 7, wire.PathSetConfig{}, []wire.StreamSpec{
		{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 0.2e6},
		{ID: 2, Class: core.ClassFullBestEffort, Priority: core.PrioNoDelay, Rate: 1e6},
	}, wifi, lte)
	drive(m.sim, m.Client, 1, 500, 200, 20*time.Millisecond)
	drive(m.sim, m.Client, 2, 1000, 500, 10*time.Millisecond)
	rng := rand.New(rand.NewSource(7))
	var delivered []int64
	for at := 500 * time.Millisecond; at <= 10*time.Second; at += 500 * time.Millisecond {
		m.at(at, func() {
			delivered = append(delivered, m.Tally.Stream(2).Delivered)
			switch rng.Intn(4) {
			case 0:
				m.ups[0].SetLoss(1)
				m.ups[1].SetLoss(0)
			case 1:
				m.ups[1].SetLoss(1)
				m.ups[0].SetLoss(0)
			case 2:
				m.ups[0].SetLoss(0)
				m.ups[1].SetLoss(0)
			}
		})
	}
	run(t, m.sim, 14*time.Second)
	for i := 1; i < len(delivered); i++ {
		if delivered[i] == delivered[i-1] {
			t.Errorf("no best-effort frame arrived between %v and %v", time.Duration(i)*500*time.Millisecond, time.Duration(i+1)*500*time.Millisecond)
		}
	}
	if got := m.Tally.Stream(1).Delivered; got != 500 {
		t.Errorf("critical frames delivered %d/500 through the churn", got)
	}
}

// Critical traffic rides the lowest-RTT path, wherever it is listed.
func TestMultipathCriticalUsesMinRTT(t *testing.T) {
	m := newMultipath(t, 35, wire.PathSetConfig{}, []wire.StreamSpec{
		{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 0.5e6},
	}, lte, wifi) // the slow path first
	drive(m.sim, m.Client, 1, 300, 200, 10*time.Millisecond)
	var slow, fast [2]int64
	m.at(1005*time.Millisecond, func() { slow[0], fast[0] = m.data(0), m.data(1) })
	m.at(2005*time.Millisecond, func() { slow[1], fast[1] = m.data(0), m.data(1) })
	run(t, m.sim, 3*time.Second)
	if got := slow[1] - slow[0]; got != 0 {
		t.Errorf("the slow path carried %d critical frames once both were measured", got)
	}
	if got := fast[1] - fast[0]; got != 100 {
		t.Errorf("the fast path carried %d of the 100 critical frames of the second second", got)
	}
}

// Failover order: the preferred path carries everything while it lives,
// the other takes over when it dies, and with every path dead the set
// still sends on one — the probe that revives a path must travel somehow.
func TestMultipathFailoverOrder(t *testing.T) {
	m := newMultipath(t, 37, wire.PathSetConfig{}, bulk, wifi, lte)
	drive(m.sim, m.Client, 1, 300, 500, 10*time.Millisecond)
	var c [6][2]int64
	for i, at := range []time.Duration{500, 900, 1400, 1900, 2400, 2900} {
		m.at(at*time.Millisecond, func() { c[i] = [2]int64{m.data(0), m.data(1)} })
	}
	m.at(time.Second, func() { m.ups[0].SetLoss(1) })
	m.at(2*time.Second, func() { m.ups[1].SetLoss(1) })
	run(t, m.sim, 4*time.Second)
	if wifi, lte := c[1][0]-c[0][0], c[1][1]-c[0][1]; wifi != 40 || lte != 0 {
		t.Errorf("both paths up: preferred carried %d, other %d of 40 frames", wifi, lte)
	}
	if wifi, lte := c[3][0]-c[2][0], c[3][1]-c[2][1]; wifi != 0 || lte != 50 {
		t.Errorf("preferred dead: it carried %d, the other %d of 50 frames", wifi, lte)
	}
	if sent := c[5][0] + c[5][1] - c[4][0] - c[4][1]; sent != 50 {
		t.Errorf("every path dead: %d of 50 frames left at all", sent)
	}
}

// A single path that stops answering probes is declared down after two
// silent intervals, and one answered probe brings it back.
func TestPathSilenceDetection(t *testing.T) {
	m := newMultipath(t, 39, wire.PathSetConfig{}, bulk, wifi)
	m.at(time.Second, func() { m.ups[0].SetLoss(1) })
	m.at(1500*time.Millisecond, func() { m.ups[0].SetLoss(0) })
	run(t, m.sim, 2*time.Second)
	if down := m.verdict("path0", wire.PathDown, time.Second); down == 0 || down-time.Second > 3*probeEvery {
		t.Errorf("silent path declared down at %v, want within %v of 1s", down, 3*probeEvery)
	}
	if up := m.verdict("path0", wire.PathUp, 1500*time.Millisecond); up == 0 || up-1500*time.Millisecond > 2*probeEvery {
		t.Errorf("answering path back up at %v, want within %v of 1.5s", up, 2*probeEvery)
	}
}

// A path that never answers a probe is abandoned: once declared down it
// carries no data, even for a striped bulk stream.
func TestPathNeverAckedBlackholeLimit(t *testing.T) {
	m := newMultipath(t, 43, wire.PathSetConfig{Stripe: true}, []wire.StreamSpec{
		{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioNoDiscard, Rate: 1e6},
	}, wifi, simnet.Hop(lte.Rate, lte.Delay, simnet.WithLoss(1)))
	drive(m.sim, m.Client, 1, 300, 500, 10*time.Millisecond)
	var hole [2]int64
	m.at(500*time.Millisecond, func() { hole[0] = m.data(1) })
	run(t, m.sim, 3*time.Second)
	hole[1] = m.data(1)
	if down := m.verdict("path1", wire.PathDown, 0); down == 0 || down > 3*probeEvery {
		t.Errorf("black hole declared down at %v, want within %v", down, 3*probeEvery)
	}
	if hole[1] != hole[0] {
		t.Errorf("the black hole took %d more data frames after it was declared down", hole[1]-hole[0])
	}
	if got := m.Tally.Stream(1).Delivered; got < 280 {
		t.Errorf("delivered %d/300 beside a black hole", got)
	}
}

// Path verdicts run on the injected virtual clock: the same timeline gives
// the same transitions at the same instants, run after run.
func TestMultipathClockInjectedDownDetection(t *testing.T) {
	verdicts := func() []pathEvent {
		m := newMultipath(t, 41, wire.PathSetConfig{}, bulk, wifi, lte)
		drive(m.sim, m.Client, 1, 250, 500, 10*time.Millisecond)
		m.at(time.Second, func() { m.ups[0].SetLoss(1) })
		m.at(1500*time.Millisecond, func() { m.ups[0].SetLoss(0) })
		run(t, m.sim, 3*time.Second)
		return m.events
	}
	first := verdicts()
	if !slices.ContainsFunc(first, func(e pathEvent) bool { return e.path == "path0" && e.state == wire.PathDown }) {
		t.Fatalf("no down verdict for the blackholed path: %v", first)
	}
	if again := verdicts(); !slices.Equal(first, again) {
		t.Errorf("same timeline, different verdicts:\n%v\n%v", first, again)
	}
}
