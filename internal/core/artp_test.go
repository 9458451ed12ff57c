package core_test

import (
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

// The delivery contract of each ARTP class and priority, held end to end by
// the one engine: a wire.Conn client and server over simulated links.

// session is a single-path ARTP client->server session over a duplex link.
type session struct {
	sim *simnet.Sim
	up  *simnet.Link
	*marsim.LinkSession
}

func newSession(t *testing.T, upRate, downRate float64, delay time.Duration, streams []wire.StreamSpec, opts ...simnet.LinkOption) *session {
	t.Helper()
	sim := simnet.New(21)
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	up := simnet.NewLink(sim, upRate, delay, serverMux, opts...)
	down := simnet.NewLink(sim, downRate, delay, clientMux, opts...)
	return &session{sim: sim, up: up, LinkSession: marsim.DialLinks(sim, 1, up, down, clientMux, serverMux,
		wire.Config{StartBudget: upRate, Streams: streams})} // start at link rate for test speed
}

// drive sends n payloads of size bytes on stream at the given interval.
func (s *session) drive(stream uint16, n, bytes int, every time.Duration) {
	drive(s.sim, s.Client, stream, n, bytes, every)
}

func drive(sim *simnet.Sim, conn *wire.Conn, stream uint16, n, bytes int, every time.Duration) {
	for i := 0; i < n; i++ {
		sim.Schedule(time.Duration(i)*every, func() { marsim.Send(sim, conn, stream, bytes) })
	}
}

func run(t *testing.T, sim *simnet.Sim, until time.Duration) {
	t.Helper()
	if err := sim.RunUntil(until); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndDelivery(t *testing.T) {
	s := newSession(t, 10e6, 10e6, 5*time.Millisecond, []wire.StreamSpec{
		{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6},
	})
	s.drive(1, 100, 200, 10*time.Millisecond)
	run(t, s.sim, 5*time.Second)
	rs := s.Tally.Stream(1)
	if rs.Delivered != 100 {
		t.Errorf("delivered = %d, want 100", rs.Delivered)
	}
	if rs.Latency.Max() > 100*time.Millisecond {
		t.Errorf("max latency %v too high for a clean 5ms link", rs.Latency.Max())
	}
	// The server sends no data, so it acknowledges every frame on its own.
	if acked, _ := s.Server.AckStats(); acked != 100 {
		t.Errorf("acked = %d, want 100", acked)
	}
	if retx := s.Client.Stats(1).Retx; retx != 0 {
		t.Errorf("retx = %d on a clean link", retx)
	}
}

func TestCriticalReliableUnderLoss(t *testing.T) {
	s := newSession(t, 10e6, 10e6, 5*time.Millisecond, []wire.StreamSpec{
		{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6},
	}, simnet.WithLoss(0.1))
	s.drive(1, 200, 200, 10*time.Millisecond)
	run(t, s.sim, 20*time.Second)
	if got := s.Tally.Stream(1).Delivered; got < 198 { // ~reliable; tail losses bounded by retx cap
		t.Errorf("delivered = %d/200 under 10%% loss", got)
	}
	if s.Client.Stats(1).Retx == 0 {
		t.Error("expected retransmissions under loss")
	}
}

func TestBestEffortNeverRetransmits(t *testing.T) {
	s := newSession(t, 10e6, 10e6, 5*time.Millisecond, []wire.StreamSpec{
		{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioNoDelay, Rate: 5e6},
	}, simnet.WithLoss(0.1))
	s.drive(1, 200, 200, 5*time.Millisecond)
	run(t, s.sim, 10*time.Second)
	if retx := s.Client.Stats(1).Retx; retx != 0 {
		t.Errorf("best-effort stream retransmitted %d times", retx)
	}
	if got := s.Tally.Stream(1).Delivered; got == 0 || got == 200 {
		t.Errorf("delivered = %d, expected some but not all under 10%% loss", got)
	}
}

func TestLossRecoveryDeadlineStopsRetx(t *testing.T) {
	// Deadline far below the RTT: a lost packet can never be repaired in
	// time, so the sender should shed rather than retransmit (Section VI-C:
	// at 30 FPS recovery is affordable only if RTT <= 37.5 ms).
	s := newSession(t, 10e6, 10e6, 60*time.Millisecond, []wire.StreamSpec{
		{ID: 1, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 5e6, Deadline: 75 * time.Millisecond}, // RTT is 120 ms
	}, simnet.WithLoss(0.15))
	s.drive(1, 100, 1000, 10*time.Millisecond)
	run(t, s.sim, 10*time.Second)
	if retx := s.Client.Stats(1).Retx; retx != 0 {
		t.Errorf("retransmitted %d despite deadline < RTT", retx)
	}
	if s.Client.LostFrameCount() == 0 {
		t.Error("expected losses declared and shed at the deadline")
	}
}

func TestLossRecoveryRetransmitsWithinBudget(t *testing.T) {
	// RTT 20 ms, deadline 200 ms: recovery is affordable.
	s := newSession(t, 10e6, 10e6, 10*time.Millisecond, []wire.StreamSpec{
		{ID: 1, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 5e6, Deadline: 200 * time.Millisecond},
	}, simnet.WithLoss(0.08))
	s.drive(1, 300, 1000, 5*time.Millisecond)
	run(t, s.sim, 10*time.Second)
	if s.Client.Stats(1).Retx == 0 {
		t.Error("expected retransmissions")
	}
	rs := s.Tally.Stream(1)
	if total := rs.Delivered + rs.Late; total < 290 {
		t.Errorf("recovered delivery = %d/300", total)
	}
}

// FEC rides a one-path PathSet: every group of up to 8 data frames is
// followed by 2 parity shards on the same path.
func TestFECRecoversWithoutRetx(t *testing.T) {
	sim := simnet.New(21)
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	up := simnet.NewLink(sim, 10e6, 30*time.Millisecond, serverMux, simnet.WithLoss(0.05))
	down := simnet.NewLink(sim, 10e6, 30*time.Millisecond, clientMux, simnet.WithLoss(0.05))
	s, err := marsim.DialPaths(sim, 1, down, clientMux, serverMux,
		wire.PathSetConfig{FEC: wire.PathFEC{K: 8, M: 2}},
		wire.Config{StartBudget: 10e6, Streams: []wire.StreamSpec{
			{ID: 1, Class: core.ClassLossRecovery, Priority: core.PrioNoDiscard, Rate: 5e6, Deadline: time.Second},
		}}, up)
	if err != nil {
		t.Fatal(err)
	}
	drive(sim, s.Client, 1, 400, 1000, 5*time.Millisecond)
	run(t, sim, 20*time.Second)
	if s.Router.Stats().FECRepaired == 0 {
		t.Error("FEC recovered nothing under 5% loss")
	}
	if parity := s.Paths.Stats().ParitySent; parity < 400/8*2 {
		t.Errorf("parity shards = %d, want at least %d", parity, 400/8*2)
	}
	if got := s.Tally.Stream(1).Delivered; got < 390 {
		t.Errorf("delivered+recovered = %d/400", got)
	}
}

func TestGracefulDegradationShedsLowPriorityFirst(t *testing.T) {
	// Offer 2.6 Mb/s total on a link that will be squeezed to 1 Mb/s: the
	// lowest priority stream must absorb the entire cut.
	s := newSession(t, 5e6, 5e6, 10*time.Millisecond, []wire.StreamSpec{
		{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 0.2e6},
		{ID: 2, Class: core.ClassFullBestEffort, Priority: core.PrioLowest, Rate: 2.8e6},
	})
	// Squeeze the uplink after 2 s.
	s.sim.Schedule(2*time.Second, func() { s.up.SetRate(1e6) })
	// Drive both streams for 6 s.
	s.drive(1, 600, 250, 10*time.Millisecond)  // 250 B @ 100/s = 0.2 Mb/s
	s.drive(2, 1500, 1200, 4*time.Millisecond) // 1200 B @ 250/s = 2.4 Mb/s
	run(t, s.sim, 8*time.Second)

	if s.Client.Stats(2).Shed == 0 {
		t.Error("low-priority stream was never shed despite squeeze")
	}
	if got := s.Tally.Stream(1).Delivered; got < 590 {
		t.Errorf("critical stream lost data: %d/600 delivered", got)
	}
	if shed := s.Client.Stats(1).Shed; shed != 0 {
		t.Errorf("critical stream shed %d packets", shed)
	}
}

func TestAllocationFollowsPriorityOrder(t *testing.T) {
	sim := simnet.New(1)
	gotLow := -1.0
	// The low-priority stream is declared first and has the lower id: the
	// budget still funds the high-priority one first.
	conn, err := wire.DialVia(marsim.NewLinkEndpoint(sim, 1, &simnet.Sink{}), marsim.LinkAddr(2), wire.Config{
		Clock: marsim.NewClock(sim), StartBudget: 1e6, Streams: []wire.StreamSpec{
			{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioLowest, Rate: 1e6, OnAllocate: func(r float64) { gotLow = r }},
			{ID: 2, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 0.8e6},
		}})
	if err != nil {
		t.Fatal(err)
	}
	if high := conn.Stats(2).Allocated; high != 0.8e6 {
		t.Errorf("high alloc = %v, want 0.8e6", high)
	}
	if low := conn.Stats(1).Allocated; low != 0.2e6 {
		t.Errorf("low alloc = %v, want leftover 0.2e6", low)
	}
	if gotLow != 0.2e6 {
		t.Errorf("OnAllocate reported %v", gotLow)
	}
}

func TestQoSFeedbackOnCongestion(t *testing.T) {
	var allocs []float64
	s := newSession(t, 2e6, 2e6, 10*time.Millisecond, []wire.StreamSpec{
		{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioLowest, Rate: 1.8e6,
			OnAllocate: func(r float64) { allocs = append(allocs, r) }},
	})
	s.sim.Schedule(time.Second, func() { s.up.SetRate(0.3e6) })
	s.drive(1, 1000, 1000, 5*time.Millisecond)
	run(t, s.sim, 6*time.Second)
	if len(allocs) == 0 {
		t.Fatal("no allocation feedback")
	}
	lowest := allocs[0]
	for _, a := range allocs {
		lowest = min(lowest, a)
	}
	if lowest >= 1.8e6 {
		t.Errorf("allocation never decreased: min=%v", lowest)
	}
}

// TestReceiverIgnoresMalformed: datagrams that are not ARTP frames, and a
// control frame that names nothing, are dropped without an acknowledgement
// or a delivery.
func TestReceiverIgnoresMalformed(t *testing.T) {
	s := newSession(t, 1e6, 1e6, time.Millisecond, nil)
	nack, err := wire.AppendFrame(nil, wire.Header{Type: wire.TypeNack, Stream: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []any{[]byte("garbage, not a frame"), "not even bytes", nack} {
		s.up.Send(&simnet.Packet{ID: s.sim.NextPacketID(), Src: 1, Dst: 2, Size: 64, Payload: payload})
	}
	run(t, s.sim, time.Second)
	if acked, _ := s.Server.AckStats(); acked != 0 {
		t.Errorf("malformed packets acked %d times", acked)
	}
	if got := s.Tally.Stream(9).Delivered; got != 0 {
		t.Errorf("malformed packets delivered %d messages", got)
	}
}

// TestMultiServerDispatch reproduces Figure 5a at the protocol level: one
// device, two servers. The latency-critical stream goes to a nearby edge
// server over a fast path while the bulk stream rides to the cloud, one
// conn each, routed by destination and acknowledged independently.
func TestMultiServerDispatch(t *testing.T) {
	sim := simnet.New(51)
	clock := marsim.NewClock(sim)
	clientMux := simnet.NewDemux()
	edgeMux, cloudMux := simnet.NewDemux(), simnet.NewDemux()

	// Two disjoint forward paths entered through one router keyed on the
	// packet destination.
	router := simnet.NewRouter()
	router.Route(10, simnet.NewLink(sim, 50e6, 3*time.Millisecond, edgeMux))
	router.Route(20, simnet.NewLink(sim, 20e6, 25*time.Millisecond, cloudMux))
	fromEdge := simnet.NewLink(sim, 50e6, 3*time.Millisecond, clientMux)
	fromCloud := simnet.NewLink(sim, 20e6, 25*time.Millisecond, clientMux)

	tracking := wire.StreamSpec{ID: 1, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 2e6, Deadline: 75 * time.Millisecond}
	recognition := wire.StreamSpec{ID: 2, Class: core.ClassFullBestEffort, Priority: core.PrioNoDiscard, Rate: 3e6}
	dial := func(local, server simnet.Addr, mux *simnet.Demux, back *simnet.Link, spec wire.StreamSpec) (*wire.Conn, *marsim.Tally) {
		tally := marsim.NewTally(sim, spec)
		srv := marsim.NewLinkEndpoint(sim, server, back)
		mux.Register(server, srv)
		if _, err := wire.ListenVia(srv, wire.Config{Clock: clock, OnMessage: tally.OnMessage}); err != nil {
			t.Fatal(err)
		}
		ep := marsim.NewLinkEndpoint(sim, local, router)
		clientMux.Register(local, ep)
		conn, err := wire.DialVia(ep, marsim.LinkAddr(server), wire.Config{Clock: clock, StartBudget: 10e6, Streams: []wire.StreamSpec{spec}})
		if err != nil {
			t.Fatal(err)
		}
		return conn, tally
	}
	toEdge, edge := dial(1, 10, edgeMux, fromEdge, tracking)
	toCloud, cloud := dial(3, 20, cloudMux, fromCloud, recognition)
	drive(sim, toEdge, 1, 200, 500, 10*time.Millisecond)
	drive(sim, toCloud, 2, 200, 1200, 10*time.Millisecond)
	run(t, sim, 5*time.Second)

	edgeStats, cloudStats := edge.Stream(1), cloud.Stream(2)
	if edgeStats.Delivered != 200 {
		t.Errorf("edge received %d/200 critical packets", edgeStats.Delivered)
	}
	if cloudStats.Delivered < 195 {
		t.Errorf("cloud received %d/200 bulk packets", cloudStats.Delivered)
	}
	// No cross-delivery.
	if cloud.Stream(1).Delivered != 0 {
		t.Error("critical stream leaked to the cloud")
	}
	if edge.Stream(2).Delivered != 0 {
		t.Error("bulk stream leaked to the edge")
	}
	// The edge path's latency advantage shows in the deliveries.
	if edgeStats.Latency.Mean() >= cloudStats.Latency.Mean() {
		t.Errorf("edge latency %v not below cloud %v", edgeStats.Latency.Mean(), cloudStats.Latency.Mean())
	}
}
