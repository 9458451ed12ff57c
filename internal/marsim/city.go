package marsim

// The fleet tier: a 100k-endpoint city on virtual time. Unlike the
// scenario harness — which hosts the real wire/rpc stack per endpoint and
// tops out at a handful of hosts — the city models each Mobile AR user as
// compact analytic state (no goroutine, no socket, ~56 bytes plus one
// pre-bound callback) driven by a single pooled sim event. Each offload
// request resolves its end-to-end latency arithmetically at issue time:
// the user's 802.11 cell is a FIFO radio medium whose per-burst occupancy
// reproduces Figure 2's performance anomaly (a slow station's airtime
// delays everyone, collapsing cell goodput toward the slowest attached
// rate), the metro network contributes a distance-based delay to the
// user's assigned edge site, and the site adds a fixed compute time. That
// keeps a 10-virtual-minute, 100k-user city to ~1 sim event per offload —
// tens of millions of events, seconds of wall time — which is what makes
// the Section VI-F loop testable at metro scale: export the demand to
// internal/edge, solve min |C|, replay the chosen placement under the
// same seeded load, and measure whether the deadlines actually hold.

import (
	"fmt"
	"math"
	"time"

	"marnet/internal/edge"
	"marnet/internal/phy"
	"marnet/internal/simnet"
)

// FlashCrowd scripts a stadium event: Users extra endpoints materialize
// in a hotspot over RampUp starting at At, stay for Duration, then leave.
type FlashCrowd struct {
	Users    int
	At       time.Duration
	RampUp   time.Duration
	Duration time.Duration
	X, Y     float64 // hotspot centre, km
	RadiusKm float64 // crowd scatter around the hotspot
}

// CityConfig parameterizes one city. Zero fields take the defaults listed
// on each; the demand model follows the related-work assumptions the city
// exists to test: CloudAR-style recognition offloads every couple of
// seconds with local tracking in between, and Ren-style per-user deadline
// budgets split across access, metro network, and edge compute.
type CityConfig struct {
	Seed   int64
	Users  int     // resident fleet size (default 100_000)
	SideKm float64 // city square side (default 80)

	CellGrid int // CellGrid×CellGrid 802.11 cells tiling the city (default 40)
	Sites    int // candidate edge-site locations (default 48)

	Horizon time.Duration // simulated run length (default 10min)

	// Offload demand (per active user).
	OffloadEvery time.Duration // mean gap between offloads (default 2s)
	UplinkBytes  int           // per-offload uplink payload (default 8000)
	DownBytes    int           // per-offload result payload (default 2000)

	// The deadline ledger: Deadline = access + 2×net + Compute must hold
	// per offload. AccessAllowance is the share budgeted for the radio
	// cell when deriving the placement's per-direction network budget.
	Deadline        time.Duration // δa end-to-end (default 60ms)
	Compute         time.Duration // edge processing time (default 20ms)
	AccessAllowance time.Duration // access share for planning (default 25ms)

	// Session process: users alternate exponential on/off periods; the
	// off mean is divided by the diurnal intensity, so load swells and
	// ebbs over the horizon.
	MeanOn        time.Duration // mean session length (default 90s)
	MeanOff       time.Duration // mean idle gap at intensity 1 (default 45s)
	DiurnalPeriod time.Duration // intensity cycle; 0 = one cycle per horizon
	DiurnalDepth  float64       // 0..0.9 modulation (default 0.35)

	Crowd *FlashCrowd // optional stadium event

	// Radio-cell guardrail: requests arriving to a cell backlogged past
	// this are shed (droptail at the AP), so an overloaded cell degrades
	// instead of accumulating unbounded virtual queue (default 1s).
	MaxAccessBacklog time.Duration

	// CloudLatency is the one-way network latency used for every user
	// when no placement is assigned — the "distant datacenter" baseline
	// (default 25ms).
	CloudLatency time.Duration

	SummaryEvery time.Duration // trace summary cadence (default Horizon/20)
}

func (c CityConfig) withDefaults() CityConfig {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	defD := func(v *time.Duration, d time.Duration) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.Users, 100_000)
	if c.SideKm == 0 {
		c.SideKm = 80
	}
	def(&c.CellGrid, 40)
	def(&c.Sites, 48)
	defD(&c.Horizon, 10*time.Minute)
	defD(&c.OffloadEvery, 2*time.Second)
	def(&c.UplinkBytes, 8_000)
	def(&c.DownBytes, 2_000)
	defD(&c.Deadline, 60*time.Millisecond)
	defD(&c.Compute, 20*time.Millisecond)
	defD(&c.AccessAllowance, 25*time.Millisecond)
	defD(&c.MeanOn, 90*time.Second)
	defD(&c.MeanOff, 45*time.Second)
	defD(&c.DiurnalPeriod, c.Horizon)
	if c.DiurnalDepth == 0 {
		c.DiurnalDepth = 0.35
	}
	if c.DiurnalDepth > 0.9 {
		c.DiurnalDepth = 0.9
	}
	defD(&c.MaxAccessBacklog, time.Second)
	defD(&c.CloudLatency, 25*time.Millisecond)
	defD(&c.SummaryEvery, c.Horizon/20)
	return c
}

// NetBudget is the per-direction metro-network latency budget implied by
// the deadline ledger — the feasibility threshold handed to the Section
// VI-F solver.
func (c CityConfig) NetBudget() time.Duration {
	b := (c.Deadline - c.Compute - c.AccessAllowance) / 2
	if b < time.Millisecond {
		b = time.Millisecond
	}
	return b
}

// cityUser is one endpoint's complete state: position, radio attachment,
// serving site, and session phase. No goroutine, no heap churn — the
// fleet tier is a slice of these plus one pre-bound callback each.
type cityUser struct {
	x, y       float32
	cell       int32
	rate       float32       // PHY uplink rate, bits/s (distance-laddered)
	netLat     time.Duration // one-way user↔site network latency
	sessionEnd time.Duration
	active     bool
	crowd      bool
}

// cityCell is one 802.11 AP: a FIFO radio medium whose occupancy model
// carries the performance anomaly — each burst holds the channel for
// frames × (contention overhead + frame bits / sender rate), so slow
// senders inflate everyone's queueing delay.
type cityCell struct {
	x, y       float32
	busyUntil  time.Duration
	overhead   time.Duration // effective per-frame MAC overhead at current contention
	active     int32
	peakActive int32

	offloads, hits, misses, shed int64
}

// CityResult is one run's ledger.
type CityResult struct {
	Offloads, Hits, Misses, Shed int64
	HoldRate                     float64 // Hits / Offloads
	CrowdOffloads, CrowdHits     int64   // during the flash-crowd window
	CrowdHoldRate                float64
	P50, P95, P99                time.Duration
	PeakActive                   int
	PeakCellActive               int
	SessionArrivals, SessionEnds int64
	EventsFired                  uint64
	MaxPending                   int
	TraceHash                    uint64
}

// City is a fleet-scale simulation instance. Build with NewCity, point it
// at an edge placement with AssignPlacement (or leave it on the cloud
// baseline), then Run.
type City struct {
	cfg   CityConfig
	sim   *simnet.Sim
	trace *Trace

	users   []cityUser
	tickFns []func()
	cells   []cityCell
	sites   []edge.Site

	placement []int // selected candidate-site indexes; nil = cloud baseline

	active     int
	peakActive int
	arrivals   int64
	departures int64
	maxPending int
	histo      []int64 // end-to-end latency, 1ms buckets, grown to the slowest offload seen

	offloads, hits, misses, shed int64
	crowdOffloads, crowdHits     int64
}

// NewCity lays out a seeded city: users uniform over the square (plus the
// optional crowd clustered at its hotspot), cells on a regular grid, and
// candidate edge sites uniform at random. The same seed always produces
// the same city and the same demand timeline.
func NewCity(cfg CityConfig) *City {
	cfg = cfg.withDefaults()
	sim := simnet.New(cfg.Seed)
	c := &City{
		cfg:   cfg,
		sim:   sim,
		trace: NewTrace(sim),
	}
	rng := sim.Rand()

	// Cells on a regular grid.
	g := cfg.CellGrid
	cellSide := cfg.SideKm / float64(g)
	c.cells = make([]cityCell, g*g)
	for iy := 0; iy < g; iy++ {
		for ix := 0; ix < g; ix++ {
			cl := &c.cells[iy*g+ix]
			cl.x = float32((float64(ix) + 0.5) * cellSide)
			cl.y = float32((float64(iy) + 0.5) * cellSide)
			cl.overhead = phy.DefaultFrameOverhead
		}
	}

	// Candidate edge sites: a jittered grid, the way metro candidate
	// locations actually look (central offices and aggregation points
	// spread roughly evenly) — and dense enough that every user has some
	// feasible site, so the solver's job is minimizing |C|, not rescuing
	// coverage holes a uniform-random draw would leave.
	sg := int(math.Round(math.Sqrt(float64(cfg.Sites))))
	if sg < 2 {
		sg = 2
	}
	spacing := cfg.SideKm / float64(sg)
	c.sites = make([]edge.Site, 0, sg*sg)
	for iy := 0; iy < sg; iy++ {
		for ix := 0; ix < sg; ix++ {
			jx := (rng.Float64() - 0.5) * 0.2 * spacing
			jy := (rng.Float64() - 0.5) * 0.2 * spacing
			c.sites = append(c.sites, edge.Site{
				X: clampF((float64(ix)+0.5)*spacing+jx, 0, cfg.SideKm),
				Y: clampF((float64(iy)+0.5)*spacing+jy, 0, cfg.SideKm),
			})
		}
	}

	// Resident fleet, uniform over the city.
	crowd := 0
	if cfg.Crowd != nil {
		crowd = cfg.Crowd.Users
	}
	c.users = make([]cityUser, cfg.Users+crowd)
	c.tickFns = make([]func(), len(c.users))
	for i := 0; i < cfg.Users; i++ {
		c.placeUser(i, rng.Float64()*cfg.SideKm, rng.Float64()*cfg.SideKm, false)
	}
	// The crowd scatters around the hotspot.
	if cfg.Crowd != nil {
		r := cfg.Crowd.RadiusKm
		if r <= 0 {
			r = 1.5 * cellSide
		}
		for i := cfg.Users; i < len(c.users); i++ {
			ang := rng.Float64() * 2 * math.Pi
			d := math.Sqrt(rng.Float64()) * r
			x := clampF(cfg.Crowd.X+d*math.Cos(ang), 0, cfg.SideKm)
			y := clampF(cfg.Crowd.Y+d*math.Sin(ang), 0, cfg.SideKm)
			c.placeUser(i, x, y, true)
		}
	}
	for i := range c.users {
		i := i
		c.tickFns[i] = func() { c.tick(i) }
	}
	// Cloud baseline until a placement is assigned.
	for i := range c.users {
		c.users[i].netLat = cfg.CloudLatency
	}
	return c
}

func (c *City) placeUser(i int, x, y float64, crowd bool) {
	u := &c.users[i]
	u.x, u.y = float32(x), float32(y)
	u.crowd = crowd
	g := c.cfg.CellGrid
	cellSide := c.cfg.SideKm / float64(g)
	ix := clampI(int(x/cellSide), 0, g-1)
	iy := clampI(int(y/cellSide), 0, g-1)
	u.cell = int32(iy*g + ix)
	cl := &c.cells[u.cell]
	u.rate = rateLadder(distKm(x, y, float64(cl.x), float64(cl.y)), cellSide)
}

// rateLadder maps distance from the AP to an 802.11a/g PHY rate. The
// outer ring's 6 Mb/s stations are the anomaly's slow talkers.
func rateLadder(distKm, cellSideKm float64) float32 {
	switch f := distKm / cellSideKm; {
	case f <= 0.18:
		return 54e6
	case f <= 0.32:
		return 36e6
	case f <= 0.50:
		return 18e6
	default:
		return 6e6
	}
}

func distKm(x1, y1, x2, y2 float64) float64 {
	dx, dy := x1-x2, y1-y2
	return math.Sqrt(dx*dx + dy*dy)
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Config returns the city's configuration with all defaults resolved.
func (c *City) Config() CityConfig { return c.cfg }

// Population reports resident + crowd endpoints.
func (c *City) Population() int { return len(c.users) }

// Cells reports the number of radio cells.
func (c *City) Cells() int { return len(c.cells) }

// DemandInstance exports the city's demand as a Section VI-F placement
// instance: every endpoint (crowd included — the stadium must be covered
// too) with the per-direction network budget implied by the deadline
// ledger, over the candidate site set.
func (c *City) DemandInstance() edge.Instance {
	inst := edge.Instance{
		Sites:   c.sites,
		Users:   make([]edge.User, len(c.users)),
		Latency: edge.DefaultLatency,
	}
	budget := c.cfg.NetBudget()
	for i, u := range c.users {
		inst.Users[i] = edge.User{X: float64(u.x), Y: float64(u.y), Budget: budget}
	}
	return inst
}

// AssignPlacement points every user at the lowest-latency selected site
// that satisfies its budget (falling back to the nearest selected site
// when none does — those users are expected to miss). This is the replay
// half of the provisioning loop: the solver chose |C| sites from the
// demand snapshot; the city now runs the same seeded load against them.
func (c *City) AssignPlacement(selection []int) error {
	budget := c.cfg.NetBudget()
	for _, si := range selection {
		if si < 0 || si >= len(c.sites) {
			return fmt.Errorf("marsim: placement site %d out of range", si)
		}
	}
	if len(selection) == 0 {
		return fmt.Errorf("marsim: empty placement")
	}
	for i := range c.users {
		u := &c.users[i]
		best, bestCover := time.Duration(1<<62-1), time.Duration(1<<62-1)
		for _, si := range selection {
			lat := edge.DefaultLatency(c.sites[si], edge.User{X: float64(u.x), Y: float64(u.y)})
			if lat < best {
				best = lat
			}
			if lat < budget && lat < bestCover {
				bestCover = lat
			}
		}
		if bestCover < 1<<62-1 {
			u.netLat = bestCover
		} else {
			u.netLat = best
		}
	}
	c.placement = append([]int(nil), selection...)
	return nil
}

// intensity is the diurnal load factor at virtual time t: one sinusoidal
// cycle per period, trough at the start, peak mid-cycle.
func (c *City) intensity(t time.Duration) float64 {
	p := c.cfg.DiurnalPeriod
	if p <= 0 || c.cfg.DiurnalDepth <= 0 {
		return 1
	}
	phase := 2*math.Pi*float64(t)/float64(p) - math.Pi/2
	return 1 + c.cfg.DiurnalDepth*math.Sin(phase)
}

func (c *City) expDur(mean time.Duration) time.Duration {
	d := time.Duration(c.sim.Rand().ExpFloat64() * float64(mean))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// tick is the per-user state machine: activate, offload on a jittered
// cadence while the session lasts, then idle for a diurnally-modulated
// exponential gap. Crowd users run one session pinned to the event window.
func (c *City) tick(i int) {
	u := &c.users[i]
	now := c.sim.Now()
	if !u.active {
		c.activate(u, now)
		c.sim.Schedule(c.offloadGap(), c.tickFns[i])
		return
	}
	if now >= u.sessionEnd {
		c.deactivate(u)
		if u.crowd {
			return // the stadium emptied; crowd users are done
		}
		c.sim.Schedule(c.idleGap(now), c.tickFns[i])
		return
	}
	c.offload(u, now)
	c.sim.Schedule(c.offloadGap(), c.tickFns[i])
}

// offloadGap jitters the per-user cadence ±20% so cells do not beat.
func (c *City) offloadGap() time.Duration {
	f := 0.8 + 0.4*c.sim.Rand().Float64()
	return time.Duration(f * float64(c.cfg.OffloadEvery))
}

func (c *City) idleGap(now time.Duration) time.Duration {
	mean := time.Duration(float64(c.cfg.MeanOff) / c.intensity(now))
	return c.expDur(mean)
}

func (c *City) activate(u *cityUser, now time.Duration) {
	u.active = true
	if u.crowd {
		u.sessionEnd = c.cfg.Crowd.At + c.cfg.Crowd.Duration
	} else {
		u.sessionEnd = now + c.expDur(c.cfg.MeanOn)
	}
	c.arrivals++
	c.active++
	if c.active > c.peakActive {
		c.peakActive = c.active
	}
	cl := &c.cells[u.cell]
	cl.active++
	if cl.active > cl.peakActive {
		cl.peakActive = cl.active
	}
	c.retune(cl)
}

func (c *City) deactivate(u *cityUser) {
	u.active = false
	c.departures++
	c.active--
	cl := &c.cells[u.cell]
	cl.active--
	c.retune(cl)
}

// retune refreshes the cell's effective per-frame MAC overhead for its
// current contention level: the Bianchi-style slotted approximation —
// collision probability 1-(1-1/CW)^(n-1) — inflates the fixed DCF cost by
// the expected retry factor. Recomputed only on attach/detach, so the
// per-offload path stays a handful of adds.
func (c *City) retune(cl *cityCell) {
	n := int(cl.active)
	if n <= 1 {
		cl.overhead = phy.DefaultFrameOverhead
		return
	}
	const cw = 32.0
	p := 1 - math.Pow(1-1/cw, float64(n-1))
	if p > 0.6 {
		p = 0.6
	}
	cl.overhead = time.Duration(float64(phy.DefaultFrameOverhead) / (1 - p))
}

// offload resolves one request analytically. The cell is a FIFO medium:
// the burst waits behind the current backlog, then occupies the channel
// for frames × (overhead + frame bits / this sender's rate) — the
// performance-anomaly term: a 6 Mb/s talker holds the air ~9× longer per
// frame than a 54 Mb/s one, and every later arrival in the cell eats that
// wait. End-to-end = access + 2×net + compute, judged against δa.
func (c *City) offload(u *cityUser, now time.Duration) {
	cl := &c.cells[u.cell]
	cl.offloads++
	c.offloads++
	inCrowd := c.inCrowdWindow(now)
	if inCrowd {
		c.crowdOffloads++
	}

	backlog := cl.busyUntil - now
	if backlog < 0 {
		backlog = 0
	}
	if backlog > c.cfg.MaxAccessBacklog {
		cl.shed++
		c.shed++
		return
	}
	frames := (c.cfg.UplinkBytes + c.cfg.DownBytes + 1499) / 1500
	perFrame := cl.overhead + time.Duration(float64(1500*8)/float64(u.rate)*float64(time.Second))
	air := time.Duration(frames) * perFrame
	cl.busyUntil = now + backlog + air

	e2e := backlog + air + 2*u.netLat + c.cfg.Compute
	bucket := int(e2e / time.Millisecond)
	if bucket >= len(c.histo) {
		// The droptail above bounds e2e, so this settles after a few
		// growths and no bucket ever stands for "this or more".
		c.histo = append(c.histo, make([]int64, bucket+1-len(c.histo))...)
	}
	c.histo[bucket]++
	if e2e <= c.cfg.Deadline {
		cl.hits++
		c.hits++
		if inCrowd {
			c.crowdHits++
		}
	} else {
		cl.misses++
		c.misses++
	}
}

func (c *City) inCrowdWindow(now time.Duration) bool {
	cr := c.cfg.Crowd
	return cr != nil && now >= cr.At && now < cr.At+cr.Duration
}

// Run drives the city to its horizon and returns the ledger. Determinism:
// the same config (seed included) produces a byte-identical trace; the
// trace carries periodic aggregate summaries, not per-offload lines, so
// it stays a few dozen lines at any fleet size.
func (c *City) Run() (CityResult, error) {
	cfg := c.cfg
	mode := "cloud"
	if c.placement != nil {
		mode = fmt.Sprintf("placement |C|=%d", len(c.placement))
	}
	c.trace.Logf("city start users=%d crowd=%d cells=%d sites=%d mode=%s deadline=%s netbudget=%s",
		cfg.Users, len(c.users)-cfg.Users, len(c.cells), len(c.sites), mode,
		stamp(cfg.Deadline), stamp(cfg.NetBudget()))

	rng := c.sim.Rand()
	for i := range c.users {
		if c.users[i].crowd {
			// Crowd users pour in over the ramp.
			c.sim.ScheduleAt(cfg.Crowd.At+time.Duration(rng.Float64()*float64(cfg.Crowd.RampUp)), c.tickFns[i])
		} else {
			// Residents stagger in as if the process had been running: a
			// uniform draw over on+off puts the fleet near steady state.
			c.sim.ScheduleAt(time.Duration(rng.Float64()*float64(cfg.MeanOn+cfg.MeanOff)/2), c.tickFns[i])
		}
	}

	var summarize func()
	summarize = func() {
		if p := c.sim.Pending(); p > c.maxPending {
			c.maxPending = p
		}
		c.trace.Logf("city t=%s active=%d offloads=%d hits=%d misses=%d shed=%d pending=%d",
			stamp(c.sim.Now()), c.active, c.offloads, c.hits, c.misses, c.shed, c.sim.Pending())
		if c.sim.Now()+cfg.SummaryEvery <= cfg.Horizon {
			c.sim.Schedule(cfg.SummaryEvery, summarize)
		}
	}
	c.sim.Schedule(cfg.SummaryEvery, summarize)

	if err := c.sim.RunUntil(cfg.Horizon); err != nil {
		return CityResult{}, fmt.Errorf("marsim: city: %w", err)
	}
	res := c.result()
	c.trace.Logf("city end offloads=%d hold=%.4f p95=%s peak_active=%d",
		res.Offloads, res.HoldRate, stamp(res.P95), res.PeakActive)
	res.TraceHash = c.trace.Hash()
	if err := c.checkConservation(res); err != nil {
		return res, err
	}
	return res, nil
}

func (c *City) result() CityResult {
	r := CityResult{
		Offloads: c.offloads, Hits: c.hits, Misses: c.misses, Shed: c.shed,
		CrowdOffloads: c.crowdOffloads, CrowdHits: c.crowdHits,
		PeakActive:      c.peakActive,
		SessionArrivals: c.arrivals, SessionEnds: c.departures,
		EventsFired: c.sim.TotalFired(),
		MaxPending:  c.maxPending,
	}
	if r.Offloads > 0 {
		r.HoldRate = float64(r.Hits) / float64(r.Offloads)
	}
	if r.CrowdOffloads > 0 {
		r.CrowdHoldRate = float64(r.CrowdHits) / float64(r.CrowdOffloads)
	}
	measured := r.Hits + r.Misses
	r.P50 = c.percentile(measured, 0.50)
	r.P95 = c.percentile(measured, 0.95)
	r.P99 = c.percentile(measured, 0.99)
	for i := range c.cells {
		if int(c.cells[i].peakActive) > r.PeakCellActive {
			r.PeakCellActive = int(c.cells[i].peakActive)
		}
	}
	return r
}

func (c *City) percentile(total int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	want := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i, n := range c.histo {
		cum += n
		if cum >= want {
			return time.Duration(i+1) * time.Millisecond
		}
	}
	return time.Duration(len(c.histo)) * time.Millisecond
}

// checkConservation verifies the fleet-scale ledgers: every issued
// offload is accounted exactly once (hit, miss, or shed) globally and
// per-cell, and every session arrival is matched by a departure or a
// still-active user.
func (c *City) checkConservation(r CityResult) error {
	if r.Offloads != r.Hits+r.Misses+r.Shed {
		return fmt.Errorf("marsim: city offload conservation: %d issued != %d hit + %d miss + %d shed",
			r.Offloads, r.Hits, r.Misses, r.Shed)
	}
	var cellOff, cellHit, cellMiss, cellShed int64
	for i := range c.cells {
		cl := &c.cells[i]
		if cl.offloads != cl.hits+cl.misses+cl.shed {
			return fmt.Errorf("marsim: city cell %d conservation: %d != %d+%d+%d",
				i, cl.offloads, cl.hits, cl.misses, cl.shed)
		}
		cellOff += cl.offloads
		cellHit += cl.hits
		cellMiss += cl.misses
		cellShed += cl.shed
	}
	if cellOff != r.Offloads || cellHit != r.Hits || cellMiss != r.Misses || cellShed != r.Shed {
		return fmt.Errorf("marsim: city per-cell totals diverge from global: %d/%d/%d/%d vs %d/%d/%d/%d",
			cellOff, cellHit, cellMiss, cellShed, r.Offloads, r.Hits, r.Misses, r.Shed)
	}
	if got := r.SessionArrivals - r.SessionEnds; got != int64(c.active) {
		return fmt.Errorf("marsim: city session conservation: %d arrivals - %d ends = %d, but %d active",
			r.SessionArrivals, r.SessionEnds, got, c.active)
	}
	var attached int64
	for i := range c.cells {
		attached += int64(c.cells[i].active)
	}
	if attached != int64(c.active) {
		return fmt.Errorf("marsim: city cell attachment: %d attached vs %d active", attached, c.active)
	}
	return nil
}
