package marsim

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

// A Dial/Listen pair over LinkEndpoints on a 2 %-loss link delivers every
// critical frame exactly once, and the same seed delivers the same
// sequence.
func TestLinkEndpointCarriesConn(t *testing.T) {
	run := func() []int64 {
		sim := simnet.New(5)
		cm, sm := simnet.NewDemux(), simnet.NewDemux()
		up := simnet.NewLink(sim, 10e6, 5*time.Millisecond, sm, simnet.WithLoss(0.02))
		down := simnet.NewLink(sim, 10e6, 5*time.Millisecond, cm, simnet.WithLoss(0.02))
		cep, sep := NewLinkEndpoint(1, up), NewLinkEndpoint(2, down)
		cm.Register(1, cep)
		sm.Register(2, sep)
		clock := NewClock(sim)
		var got []int64
		if _, err := wire.ListenVia(sep, wire.Config{Clock: clock, OnMessage: func(m wire.Message) { got = append(got, int64(binary.LittleEndian.Uint64(m.Payload))) }}); err != nil {
			t.Fatal(err)
		}
		cli, err := wire.DialVia(cep, LinkAddr(2), wire.Config{Clock: clock, StartBudget: 5e6,
			Streams: []wire.StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			p := binary.LittleEndian.AppendUint64(make([]byte, 0, 200), uint64(i))
			sim.Schedule(time.Duration(i)*10*time.Millisecond, func() { cli.Send(1, p[:200]) })
		}
		if err := sim.RunUntil(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if st := cli.Stats(1); st.Retx == 0 {
			t.Error("no retransmission on a 2 % loss link: is the loss applied?")
		}
		return got
	}
	first := run()
	sorted := slices.Clone(first)
	slices.Sort(sorted)
	if len(sorted) != 500 || sorted[0] != 0 || sorted[499] != 499 || len(slices.Compact(sorted)) != 500 {
		t.Fatalf("delivered %d frames, want each of 0..499 once", len(first))
	}
	if again := run(); !slices.Equal(first, again) {
		t.Error("two runs of one seed delivered different sequences")
	}
}

// twoPaths is Section VI-D's client: WiFi (20 Mb/s, 8 ms) and LTE (7.9
// Mb/s, 38 ms) uplinks into a server that answers over one
// 50 Mb/s downlink, offering 1000 B every 10 ms for 30 s on each stream.
type twoPaths struct {
	sim    *simnet.Sim
	wifiUp *simnet.Link
	*LinkSession
}

func newTwoPaths(t *testing.T, stripe bool, specs ...wire.StreamSpec) *twoPaths {
	t.Helper()
	sim := simnet.New(19)
	cm, sm := simnet.NewDemux(), simnet.NewDemux()
	wifiUp := simnet.NewLink(sim, 20e6, 8*time.Millisecond, sm, simnet.WithJitter(3*time.Millisecond))
	lteUp := simnet.NewLink(sim, 7.9e6, 38*time.Millisecond, sm, simnet.WithJitter(10*time.Millisecond))
	down := simnet.NewLink(sim, 50e6, 8*time.Millisecond, cm)
	s, err := DialPaths(sim, 1, down, cm, sm, wire.PathOptions{Stripe: stripe},
		wire.Config{StartBudget: 6e6, Streams: specs}, wifiUp, lteUp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		sim.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			for _, spec := range specs {
				Send(sim, s.Client, spec.ID, 1000)
			}
		})
	}
	return &twoPaths{sim: sim, wifiUp: wifiUp, LinkSession: s}
}

// lteFrames is how many datagrams the client sent on LTE, as its metrics
// report it.
func (p *twoPaths) lteFrames() int64 {
	reg := obs.NewRegistry()
	p.Client.PublishMetrics(reg)
	return int64(Metric(reg, "mar_wire_path_sent_frames_total", obs.L("path", "path1")))
}

// lowestBudget samples the client's budget every 10 ms until the end of
// the run and reports the lowest reading.
func (p *twoPaths) lowestBudget(until time.Duration) *float64 {
	lowest := p.Client.Budget()
	for at := 10 * time.Millisecond; at < until; at += 10 * time.Millisecond {
		p.sim.ScheduleAt(at, func() { lowest = min(lowest, p.Client.Budget()) })
	}
	return &lowest
}

// The cutover from WiFi to LTE when WiFi is blackholed for 3 s is not
// congestion: the controller, fed the delay over the base RTT of the path
// that carried the frame, keeps funding the 0.8 Mb/s offered, and the LTE
// path carries it in time. Fed the raw RTT, the budget fell to its 64 kb/s
// floor and 2522 of the 3000 frames arrived within 150 ms.
func TestPathSetFailoverKeepsBudget(t *testing.T) {
	spec := wire.StreamSpec{ID: 1, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 4e6, Deadline: 150 * time.Millisecond}
	p := newTwoPaths(t, false, spec)
	p.sim.ScheduleAt(3*time.Second, func() { p.wifiUp.SetLoss(1) })
	p.sim.ScheduleAt(6*time.Second, func() { p.wifiUp.SetLoss(0) })
	lowest := p.lowestBudget(31 * time.Second)
	if err := p.sim.RunUntil(31 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := p.Tally.Stream(spec.ID)
	t.Logf("lowest budget %.2f Mb/s; %d of 3000 in time, %d late; LTE carried %d frames",
		*lowest/1e6, st.Delivered, st.Late, p.lteFrames())
	if *lowest < 0.8e6 {
		t.Errorf("the budget fell to %.3f Mb/s, under the 0.8 Mb/s offered", *lowest/1e6)
	}
	if st.Delivered < 2970 {
		t.Errorf("%d of 3000 frames arrived within 150 ms, want >= 99 %%", st.Delivered)
	}
}

// Striping over WiFi and LTE feeds the controller rebased delays, but every
// timer keeps reading the measured RTT: SRTT at least WiFi's 16 ms round
// trip, and loss detection that does not mistake LTE's flight time for
// loss. Timers fed the rebased delay read SRTT 11.4 ms here.
func TestPathSetStripeKeepsMeasuredRTT(t *testing.T) {
	spec := wire.StreamSpec{ID: 1, Class: core.ClassLossRecovery, Priority: core.PrioNoDiscard, Rate: 4e6, Deadline: 150 * time.Millisecond}
	p := newTwoPaths(t, true, spec)
	if err := p.sim.RunUntil(31 * time.Second); err != nil {
		t.Fatal(err)
	}
	srtt, st := p.Client.SRTT(), p.Client.Stats(spec.ID)
	t.Logf("SRTT %v; %d retransmissions of %d frames; LTE carried %d", srtt, st.Retx, st.Sent, p.lteFrames())
	if srtt < 16*time.Millisecond {
		t.Errorf("conn SRTT %v is under WiFi's 16 ms round trip: the timers read the rebased delay", srtt)
	}
	if st.Retx*100 > st.Sent {
		t.Errorf("%d retransmissions of %d frames, want <= 1 %%", st.Retx, st.Sent)
	}
}

// Best-effort frames striped over LTE are acknowledged like any other, and
// the controller reads their samples as LTE's flight, not as queueing:
// with a critical stream pinned to WiFi beside the stripe or without one,
// the budget never falls under what is offered. (Which path each sample is
// rebased onto is pinned by wire's TestPathSetRebasesOntoTheEchoedFramesPath.)
func TestPathSetStripeOfMixedClassesKeepsBudget(t *testing.T) {
	critical := wire.StreamSpec{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}
	bulk := wire.StreamSpec{ID: 2, Class: core.ClassFullBestEffort, Priority: core.PrioLowest, Rate: 4e6}
	for _, tc := range []struct {
		name  string
		specs []wire.StreamSpec
	}{
		{"critical pinned + best-effort striped", []wire.StreamSpec{critical, bulk}},
		{"best-effort striped alone", []wire.StreamSpec{bulk}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTwoPaths(t, true, tc.specs...)
			lowest := p.lowestBudget(31 * time.Second)
			if err := p.sim.RunUntil(31 * time.Second); err != nil {
				t.Fatal(err)
			}
			offered := 0.8e6 * float64(len(tc.specs))
			lte := p.lteFrames()
			t.Logf("lowest budget %.2f Mb/s against %.1f Mb/s offered; LTE carried %d frames; bulk %d in time",
				*lowest/1e6, offered/1e6, lte, p.Tally.Stream(bulk.ID).Delivered)
			if lte < 300 {
				t.Fatalf("LTE carried %d frames: the stripe never used it", lte)
			}
			if *lowest < offered {
				t.Errorf("the budget fell to %.3f Mb/s, under the %.1f Mb/s offered", *lowest/1e6, offered/1e6)
			}
		})
	}
}
