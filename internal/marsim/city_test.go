package marsim

import (
	"bytes"
	"testing"
	"time"

	"marnet/internal/edge"
)

// smallCity is the scaled-down test city: big enough for hundreds of
// thousands of events, small enough that a matrix of runs stays fast.
func smallCity(seed int64, crowd bool) CityConfig {
	cfg := CityConfig{
		Seed:     seed,
		Users:    2_000,
		SideKm:   16,
		CellGrid: 8,
		Sites:    9,
		Horizon:  2 * time.Minute,
	}
	if crowd {
		cfg.Crowd = &FlashCrowd{
			Users: 300, At: 30 * time.Second, RampUp: 10 * time.Second,
			Duration: 60 * time.Second, X: 8, Y: 8, RadiusKm: 2,
		}
	}
	return cfg
}

func runCity(t *testing.T, cfg CityConfig, place bool) (*City, CityResult) {
	t.Helper()
	c := NewCity(cfg)
	if place {
		sel, err := edge.Greedy(c.DemandInstance())
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		if err := c.AssignPlacement(sel); err != nil {
			t.Fatalf("assign: %v", err)
		}
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return c, res
}

// The determinism matrix: three seeds by two scenarios (steady city,
// city with a stadium flash crowd), each run twice through the full
// demand→solve→replay loop. Reruns must produce byte-identical traces;
// different seeds must not.
func TestCityDeterminismMatrix(t *testing.T) {
	type key struct {
		seed  int64
		crowd bool
	}
	traces := map[key][]byte{}
	for _, seed := range []int64{1, 7, 42} {
		for _, crowd := range []bool{false, true} {
			k := key{seed, crowd}
			c1, r1 := runCity(t, smallCity(seed, crowd), true)
			c2, r2 := runCity(t, smallCity(seed, crowd), true)
			if !bytes.Equal(c1.Trace().Bytes(), c2.Trace().Bytes()) {
				t.Fatalf("seed=%d crowd=%v: reruns diverge (trace %d vs %d bytes)",
					seed, crowd, len(c1.Trace().Bytes()), len(c2.Trace().Bytes()))
			}
			if r1.TraceHash != r2.TraceHash || r1.Offloads != r2.Offloads || r1.Hits != r2.Hits {
				t.Fatalf("seed=%d crowd=%v: rerun ledgers diverge: %+v vs %+v", seed, crowd, r1, r2)
			}
			if r1.Offloads == 0 {
				t.Fatalf("seed=%d crowd=%v: no offloads issued", seed, crowd)
			}
			traces[k] = c1.Trace().Bytes()
		}
	}
	if bytes.Equal(traces[key{1, false}], traces[key{7, false}]) {
		t.Error("different seeds produced identical traces")
	}
	if bytes.Equal(traces[key{42, false}], traces[key{42, true}]) {
		t.Error("crowd scenario produced the same trace as the steady city")
	}
}

// Fleet-scale conservation: at ~30k endpoints with a flash crowd, every
// issued offload lands in exactly one ledger bucket (Run checks the
// global, per-cell, and session ledgers internally and errors on any
// imbalance), and the event queue stays bounded by the population — the
// cancel-leak fix is what keeps Pending from growing with churn.
func TestCityFleetConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale run")
	}
	cfg := CityConfig{
		Seed:     3,
		Users:    30_000,
		SideKm:   40,
		CellGrid: 20,
		Sites:    16,
		Horizon:  3 * time.Minute,
		Crowd: &FlashCrowd{
			Users: 1_500, At: 60 * time.Second, RampUp: 15 * time.Second,
			Duration: 90 * time.Second, X: 20, Y: 20, RadiusKm: 3,
		},
	}
	c, res := runCity(t, cfg, true)
	if res.Offloads < 100_000 {
		t.Fatalf("only %d offloads at fleet scale; model under-driving", res.Offloads)
	}
	if res.HoldRate <= 0 || res.HoldRate > 1 {
		t.Fatalf("hold rate %v out of range", res.HoldRate)
	}
	// One live event per endpoint plus the summary timer: the queue must
	// not scale with cumulative offloads or re-arms.
	if res.MaxPending > c.Population()+2 {
		t.Errorf("MaxPending = %d for %d endpoints; queue growing beyond live timers",
			res.MaxPending, c.Population())
	}
	if res.SessionArrivals <= res.SessionEnds {
		// Arrivals strictly exceed ends only if someone is still active;
		// equality is fine too — just require both ledgers moved.
		if res.SessionArrivals == 0 {
			t.Error("no session arrivals recorded")
		}
	}
	if res.EventsFired == 0 || res.TraceHash == 0 {
		t.Errorf("missing run evidence: events=%d hash=%d", res.EventsFired, res.TraceHash)
	}
}

// The per-cell contention model reproduces Figure 2's performance
// anomaly: a 6 Mb/s station's burst occupies the channel several times
// longer than a 54 Mb/s one, and a fast station queued behind it eats
// that airtime — its end-to-end latency inflates by the slow burst even
// though its own PHY rate never changed.
func TestCellPerformanceAnomaly(t *testing.T) {
	cfg := CityConfig{Seed: 1, Users: 2, SideKm: 2, CellGrid: 1, Sites: 4,
		Horizon: time.Minute}
	burst := func(c *City, u *cityUser, now time.Duration) time.Duration {
		before := c.cells[u.cell].busyUntil
		c.offload(u, now)
		return c.cells[u.cell].busyUntil - max(before, now)
	}

	// Scenario A: two fast stations at the cell centre.
	a := NewCity(cfg)
	a.placeUser(0, 1.0, 1.0, false)
	a.placeUser(1, 1.05, 1.0, false)
	a.activate(&a.users[0], 0)
	a.activate(&a.users[1], 0)
	fastBurst := burst(a, &a.users[0], 0)
	fastBacklog := a.cells[0].busyUntil // what user 1 queues behind

	// Scenario B: same cell, but station 0 sits on the outer ring.
	b := NewCity(cfg)
	b.placeUser(0, 1.95, 1.95, false) // far corner: 6 Mb/s ladder rung
	b.placeUser(1, 1.05, 1.0, false)
	b.activate(&b.users[0], 0)
	b.activate(&b.users[1], 0)
	if b.users[0].rate >= 18e6 {
		t.Fatalf("outer-ring station got rate %v; ladder broken", b.users[0].rate)
	}
	slowBurst := burst(b, &b.users[0], 0)
	slowBacklog := b.cells[0].busyUntil

	if slowBurst < 4*fastBurst {
		t.Fatalf("slow burst %v not ≫ fast burst %v; anomaly term missing", slowBurst, fastBurst)
	}
	// The fast station's latency is hostage to whoever held the channel:
	// behind the slow burst its access delay grows by the full difference.
	if slowBacklog-fastBacklog < 3*fastBurst {
		t.Errorf("fast station's wait barely changed behind a slow burst: %v vs %v",
			slowBacklog, fastBacklog)
	}

	// Contention retune: more attached stations inflate the per-frame
	// overhead monotonically (Bianchi retry factor), never below the base.
	c := NewCity(cfg)
	base := c.cells[0].overhead
	var prev time.Duration
	for n := 1; n <= 64; n *= 2 {
		c.cells[0].active = int32(n)
		c.retune(&c.cells[0])
		if c.cells[0].overhead < base {
			t.Fatalf("overhead %v below uncontended base %v at n=%d", c.cells[0].overhead, base, n)
		}
		if c.cells[0].overhead < prev {
			t.Fatalf("overhead not monotone in contention: %v after %v at n=%d",
				c.cells[0].overhead, prev, n)
		}
		prev = c.cells[0].overhead
	}
}

// The demand→solve→replay loop end to end at test scale: the greedy
// placement must beat the cloud baseline on the same seeded load, and
// the rate ladder must degrade monotonically with distance.
func TestCityPlacementBeatsCloud(t *testing.T) {
	cfg := smallCity(11, true)
	_, placed := runCity(t, cfg, true)
	_, cloud := runCity(t, cfg, false)
	if placed.HoldRate <= cloud.HoldRate {
		t.Fatalf("placement hold %.4f did not beat cloud hold %.4f",
			placed.HoldRate, cloud.HoldRate)
	}
	if placed.HoldRate < 0.90 {
		t.Errorf("placement hold %.4f unexpectedly low at test scale", placed.HoldRate)
	}

	prev := float32(1e12)
	for _, d := range []float64{0.1, 0.3, 0.45, 0.9} {
		r := rateLadder(d, 1.0)
		if r > prev {
			t.Fatalf("rate ladder not monotone: %v at %.2f after %v", r, d, prev)
		}
		prev = r
	}
}

// A saturated cell's latency is reported as measured, however long: one
// cell under twenty times the load its air time can carry sits at the
// droptail bound, so nearly every admitted offload waits out a 3 s
// backlog — far past the 1024 ms at which the percentiles once pinned.
func TestCityPercentilesCoverBacklog(t *testing.T) {
	cfg := CityConfig{Seed: 5, Users: 400, SideKm: 2, CellGrid: 1, Sites: 4,
		Horizon: time.Minute, OffloadEvery: 100 * time.Millisecond, MaxAccessBacklog: 3 * time.Second}
	_, res := runCity(t, cfg, false)
	if res.Shed == 0 {
		t.Fatalf("cell never reached the droptail bound: %+v", res)
	}
	if res.P50 < 2*time.Second {
		t.Errorf("p50 = %v on a cell backlogged to %v", res.P50, cfg.MaxAccessBacklog)
	}
	if res.P50 > res.P95 || res.P95 > res.P99 || res.P99 > cfg.MaxAccessBacklog+time.Second {
		t.Errorf("percentiles %v / %v / %v out of order or past the bound", res.P50, res.P95, res.P99)
	}
}

func max(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
