package phy

import (
	"testing"
	"time"

	"marnet/internal/simnet"
)

func TestProfilesSanity(t *testing.T) {
	for _, p := range AllProfiles() {
		if p.Name == "" {
			t.Error("profile with empty name")
		}
		if p.Down <= 0 || p.Up <= 0 {
			t.Errorf("%s: non-positive measured rates", p.Name)
		}
		if p.Down > p.TheoreticalDown {
			t.Errorf("%s: measured rate exceeds theoretical", p.Name)
		}
		if p.OneWay <= 0 {
			t.Errorf("%s: non-positive delay", p.Name)
		}
		if p.Loss < 0 || p.Loss >= 1 {
			t.Errorf("%s: loss out of range", p.Name)
		}
	}
}

func TestProfileOrderingMatchesPaper(t *testing.T) {
	// Section IV: HSPA+ is the slowest and highest-latency; LTE improves
	// both; a controlled local AP has millisecond delays.
	if HSPAPlus.Down >= LTE.Down {
		t.Error("HSPA+ should be slower than LTE")
	}
	if LTE.OneWay >= HSPAPlus.OneWay {
		t.Error("LTE should have lower latency than HSPA+")
	}
	if WiFiLocal.OneWay > 5*time.Millisecond {
		t.Error("local AP should be a few ms")
	}
	if WiFi80211ac.Down <= WiFi80211n.Down {
		t.Error("802.11ac should outperform 802.11n")
	}
}

func TestProfileAsymmetry(t *testing.T) {
	// LTE's measured down/up ratio is ~2.48 (19.6/7.9), inside the paper's
	// reported 1.81-3.20 band for US mobile ISPs.
	r := LTE.Asymmetry()
	if r < 1.8 || r > 3.2 {
		t.Errorf("LTE asymmetry = %.2f, want within [1.8, 3.2]", r)
	}
	if (Profile{}).Asymmetry() != 0 {
		t.Error("zero profile asymmetry should be 0")
	}
}

func TestProfileLinks(t *testing.T) {
	sim := simnet.New(1)
	col := simnet.NewCollector(sim)
	up := WiFiLocal.Uplink(sim, col)
	down := WiFiLocal.Downlink(sim, col)
	if up.Rate() != WiFiLocal.Up || down.Rate() != WiFiLocal.Down {
		t.Errorf("link rates not taken from profile")
	}
	up.Send(&simnet.Packet{Size: 1000})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Packets) != 1 {
		t.Errorf("delivered %d, want 1", len(col.Packets))
	}
}

func TestOutageBlocksAndRestores(t *testing.T) {
	sim := simnet.New(1)
	col := simnet.NewCollector(sim)
	link := simnet.NewLink(sim, 1e9, 0, col, simnet.WithLoss(0))
	Outage(sim, link, 0, 100*time.Millisecond, 200*time.Millisecond)
	// One packet before, one during, one after.
	sim.Schedule(50*time.Millisecond, func() { link.Send(&simnet.Packet{Seq: 1, Size: 100}) })
	sim.Schedule(200*time.Millisecond, func() { link.Send(&simnet.Packet{Seq: 2, Size: 100}) })
	sim.Schedule(400*time.Millisecond, func() { link.Send(&simnet.Packet{Seq: 3, Size: 100}) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Packets) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(col.Packets))
	}
	if col.Packets[0].Seq != 1 || col.Packets[1].Seq != 3 {
		t.Errorf("wrong packets survived: %d, %d", col.Packets[0].Seq, col.Packets[1].Seq)
	}
}

func TestAnomalyAnalytic(t *testing.T) {
	const frame = 1500
	both54 := AnomalyThroughput(frame, DefaultFrameOverhead, []float64{54e6, 54e6})
	mixed := AnomalyThroughput(frame, DefaultFrameOverhead, []float64{54e6, 18e6})

	// Equal rates: equal shares.
	if both54[0] != both54[1] {
		t.Errorf("equal stations should get equal goodput: %v", both54)
	}
	// The anomaly: the fast station's goodput collapses to the slow
	// station's, and both are well below the fast-only fair share.
	if mixed[0] != mixed[1] {
		t.Errorf("DCF per-frame fairness should equalize goodputs: %v", mixed)
	}
	if mixed[0] >= both54[0]*0.75 {
		t.Errorf("fast station should lose most of its throughput: %v vs %v", mixed[0], both54[0])
	}
}

func TestMediumSimulatedAnomaly(t *testing.T) {
	run := func(rateB float64) (a, b float64) {
		sim := simnet.New(9)
		ap := &simnet.Sink{}
		m := NewMedium(sim, DefaultFrameOverhead)
		stA := m.AddStation(54e6, ap, 0)
		stB := m.AddStation(rateB, ap, 0)
		// Saturate both stations for one simulated second.
		const frame = 1500
		for i := 0; i < 3000; i++ {
			stA.Send(&simnet.Packet{Size: frame})
			stB.Send(&simnet.Packet{Size: frame})
		}
		if err := sim.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		return float64(stA.SentBytes) * 8, float64(stB.SentBytes) * 8
	}

	aFast, bFast := run(54e6)
	aSlow, bSlow := run(18e6)

	// Symmetric case: within 5%.
	if ratio := aFast / bFast; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("54/54 split unfair: %v vs %v", aFast, bFast)
	}
	// Anomaly: A's throughput with a slow B collapses to ~B's throughput.
	if ratio := aSlow / bSlow; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("A should fall to B's level: %v vs %v", aSlow, bSlow)
	}
	if aSlow >= 0.75*aFast {
		t.Errorf("A should lose most throughput when B slows: %v vs %v", aSlow, aFast)
	}
}

func TestMediumRoundRobinSkipsIdleStations(t *testing.T) {
	sim := simnet.New(1)
	col := simnet.NewCollector(sim)
	m := NewMedium(sim, time.Microsecond)
	stA := m.AddStation(54e6, col, 0)
	m.AddStation(54e6, col, 0) // idle station B
	for i := 0; i < 10; i++ {
		stA.Send(&simnet.Packet{Seq: int64(i), Size: 100})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Packets) != 10 {
		t.Errorf("idle station blocked the medium: delivered %d", len(col.Packets))
	}
}

func TestCollisionModelDegradesWithContention(t *testing.T) {
	run := func(nStations, cw int) float64 {
		sim := simnet.New(13)
		ap := &simnet.Sink{}
		m := NewMedium(sim, DefaultFrameOverhead)
		m.CWMin = cw
		var stations []*Station
		for i := 0; i < nStations; i++ {
			stations = append(stations, m.AddStation(54e6, ap, 0))
		}
		for i := 0; i < 2000; i++ {
			for _, st := range stations {
				st.Send(&simnet.Packet{Size: 1500})
			}
		}
		if err := sim.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, st := range stations {
			total += float64(st.SentBytes) * 8
		}
		return total
	}
	// Without the collision model aggregate goodput is contention-free.
	clean := run(8, 0)
	contended2 := run(2, 16)
	contended8 := run(8, 16)
	if contended8 >= clean {
		t.Errorf("8 stations with collisions %.0f should lose goodput vs clean %.0f", contended8, clean)
	}
	if contended8 >= contended2 {
		t.Errorf("aggregate goodput should fall with contention: 8stn %.0f vs 2stn %.0f", contended8, contended2)
	}
}

func TestCollisionCounterAndNoLoss(t *testing.T) {
	sim := simnet.New(17)
	col := simnet.NewCollector(sim)
	m := NewMedium(sim, time.Microsecond)
	m.CWMin = 4 // brutal contention
	a := m.AddStation(54e6, col, 0)
	b := m.AddStation(54e6, col, 0)
	const n = 200
	for i := 0; i < n; i++ {
		a.Send(&simnet.Packet{Size: 500})
		b.Send(&simnet.Packet{Size: 500})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// A collision burns a frame's airtime: the last delivery lands later
	// than the frames' airtime back to back.
	bits, rate := 500*8.0, 54e6
	airtime := time.Microsecond + time.Duration(bits/rate*float64(time.Second))
	if clean := 2 * n * airtime; sim.Now() <= clean {
		t.Errorf("CWMin=4 with two saturated stations should collide: done at %v, collision-free airtime %v", sim.Now(), clean)
	}
	// Collisions delay but never destroy frames.
	if len(col.Packets) != 2*n {
		t.Errorf("delivered %d/%d frames", len(col.Packets), 2*n)
	}
}

func TestStationQueueBound(t *testing.T) {
	sim := simnet.New(1)
	m := NewMedium(sim, time.Millisecond)
	st := m.AddStation(1e6, &simnet.Sink{}, 2)
	for i := 0; i < 10; i++ {
		st.Send(&simnet.Packet{Size: 1000})
	}
	// 1 transmitting + 2 queued accepted; rest dropped.
	if st.Backlog() != 2 {
		t.Errorf("backlog = %d, want 2", st.Backlog())
	}
}
