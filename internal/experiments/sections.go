package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"marnet/internal/core"
	"marnet/internal/edge"
	"marnet/internal/fec"
	"marnet/internal/mar"
	"marnet/internal/marsim"
	"marnet/internal/phy"
	"marnet/internal/queue"
	"marnet/internal/simnet"
	"marnet/internal/tcp"
	"marnet/internal/wire"
)

// SectionVICRow is one RTT point of the loss-recovery analysis. InTime is
// the fraction delivered within the latency budget; Complete is the
// fraction delivered at all (late counts, lost does not) — the metric FEC
// improves even when the budget is unreachable.
type SectionVICRow struct {
	RTT            time.Duration
	ARQAffordable  bool // analytic (Section VI-C rule)
	PlainInTime    float64
	ARQInTime      float64
	FECInTime      float64
	PlainComplete  float64
	ARQComplete    float64
	FECComplete    float64
	FECOverheadPct float64
}

// SectionVICResult is the loss-recovery-vs-latency study.
type SectionVICResult struct {
	Budget time.Duration
	Loss   float64
	Rows   []SectionVICRow
	// ResidualLossFEC is the analytic residual block-loss of FEC(8,2).
	ResidualLossFEC float64
}

// SectionVIC measures in-time delivery of a 30 FPS reference-frame stream
// under 5% random loss for several RTTs, comparing plain best effort, ARQ
// within the 75 ms budget, and FEC redundancy (Section VI-C's argument
// that recovery must be replaced by redundancy once RTT > budget/2).
func SectionVIC(seed int64) SectionVICResult {
	const lossP = 0.05
	budget := mar.MaxTolerableRTT
	res := SectionVICResult{
		Budget:          budget,
		Loss:            lossP,
		ResidualLossFEC: fec.ResidualLoss(8, 2, lossP),
	}
	for _, rtt := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 37 * time.Millisecond,
		50 * time.Millisecond, 80 * time.Millisecond, 150 * time.Millisecond,
	} {
		row := SectionVICRow{
			RTT:           rtt,
			ARQAffordable: mar.CanRecoverLoss(rtt, budget),
		}
		row.PlainInTime, row.PlainComplete = vicRun(seed, rtt, budget, lossP, false, 0, 0)
		row.ARQInTime, row.ARQComplete = vicRun(seed, rtt, budget, lossP, true, 0, 0)
		row.FECInTime, row.FECComplete = vicRun(seed, rtt, budget, lossP, false, 8, 2)
		row.FECOverheadPct = 2.0 / 8 * 100
		res.Rows = append(res.Rows, row)
	}
	return res
}

// vicRun runs one configuration and returns the fraction of packets
// delivered (or FEC-recovered) within the deadline, and the fraction
// delivered at all. FEC rides a one-path PathSet, whose parity shares the
// data's path.
func vicRun(seed int64, rtt, budget time.Duration, lossP float64, arq bool, fecK, fecM int) (inTime, complete float64) {
	sim := simnet.New(seed)
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	oneWay := rtt / 2
	up := simnet.NewLink(sim, 20e6, oneWay, serverMux, simnet.WithLoss(lossP))
	down := simnet.NewLink(sim, 20e6, oneWay, clientMux)
	class := core.ClassLossRecovery
	if !arq && fecK == 0 {
		class = core.ClassFullBestEffort
	}
	cfg := wire.Config{StartBudget: 10e6, Streams: []wire.StreamSpec{{
		ID: 1, Class: class, Priority: core.PrioHighest, Rate: 2e6, Deadline: budget,
	}}}
	var s *marsim.LinkSession
	if fecK == 0 {
		s = marsim.DialLinks(sim, 1, up, down, clientMux, serverMux, cfg)
	} else {
		s = dialPaths(sim, down, clientMux, serverMux, wire.PathSetConfig{FEC: wire.PathFEC{K: fecK, M: fecM}}, cfg, up)
	}
	// Each 30 FPS frame is shipped as 4 packets, as a real encoder would
	// packetize it; intra-frame gaps give the receiver a fast loss signal.
	const frames = 600 // 20 s at 30 FPS
	const pktsPerFrame = 4
	for i := 0; i < frames; i++ {
		sim.Schedule(time.Duration(i)*33*time.Millisecond, func() {
			for j := 0; j < pktsPerFrame; j++ {
				marsim.Send(sim, s.Client, 1, 300)
			}
		})
	}
	if err := sim.RunUntil(30 * time.Second); err != nil {
		panic(err)
	}
	rs := s.Tally.Stream(1)
	total := float64(frames * pktsPerFrame)
	return float64(rs.Delivered) / total, float64(rs.Delivered+rs.Late) / total
}

// Format renders the study.
func (r SectionVICResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section VI-C — loss recovery vs latency budget (%v budget, %.0f%% loss)\n",
		r.Budget, r.Loss*100)
	fmt.Fprintf(&b, "%-8s %-8s | %10s %10s %10s | %10s %10s %10s\n",
		"RTT", "ARQ ok?", "plain<=T", "ARQ<=T", "FEC<=T", "plain-all", "ARQ-all", "FEC-all")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8v %-8v | %9.1f%% %9.1f%% %9.1f%% | %9.1f%% %9.1f%% %9.1f%%\n",
			row.RTT, row.ARQAffordable,
			row.PlainInTime*100, row.ARQInTime*100, row.FECInTime*100,
			row.PlainComplete*100, row.ARQComplete*100, row.FECComplete*100)
	}
	fmt.Fprintf(&b, "FEC residual block loss (analytic): %.4f%% at %.0f%% bandwidth overhead\n",
		r.ResidualLossFEC*100, r.Rows[0].FECOverheadPct)
	return b.String()
}

// SectionVIDRow is one multipath behaviour.
type SectionVIDRow struct {
	Behavior  string
	Delivered float64 // fraction of submitted packets delivered in time
	MeanLat   time.Duration
	LTEBytes  int64 // bytes sent over the cellular path (user cost)
}

// SectionVIDResult is the multipath-behaviour study.
type SectionVIDResult struct {
	Rows []SectionVIDRow
}

// SectionVID evaluates the paper's three multipath behaviours during WiFi
// outages (AP handovers), each on a two-path PathSet whose probes notice
// the outage: (1) WiFi with LTE only as handover cover, (2) WiFi preferred
// with LTE fallback — the same failover, its losses repaired by parity on
// LTE, and (3) WiFi and LTE simultaneously — a bulk priority striped over
// both, with the same parity (band 0 is pinned to one path and never
// stripes). Reported: in-time delivery, latency, and LTE byte cost.
func SectionVID(seed int64) SectionVIDResult {
	fec := wire.PathFEC{K: 2, M: 2}
	behaviors := []struct {
		name string
		ps   wire.PathSetConfig
		prio core.Priority
	}{
		{"WiFi + LTE handover only", wire.PathSetConfig{}, core.PrioHighest},
		{"WiFi preferred, LTE fallback", wire.PathSetConfig{FEC: fec}, core.PrioHighest},
		{"WiFi and LTE simultaneously", wire.PathSetConfig{FEC: fec, Stripe: true}, core.PrioNoDiscard},
	}
	var out SectionVIDResult
	for i, bh := range behaviors {
		sim := simnet.New(seed + int64(i))
		clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
		wifiUp := simnet.NewLink(sim, 20e6, 8*time.Millisecond, serverMux, simnet.WithJitter(3*time.Millisecond))
		lteUp := simnet.NewLink(sim, 7.9e6, 38*time.Millisecond, serverMux, simnet.WithJitter(10*time.Millisecond))
		down := simnet.NewLink(sim, 50e6, 8*time.Millisecond, clientMux)
		s := dialPaths(sim, down, clientMux, serverMux, bh.ps, wire.Config{StartBudget: 6e6, Streams: []wire.StreamSpec{{
			ID: 1, Class: core.ClassLossRecovery, Priority: bh.prio, Rate: 4e6, Deadline: 150 * time.Millisecond,
		}}}, wifiUp, lteUp)

		// WiFi outages: 3 s every 10 s (handover gaps, Section IV-A4).
		for _, start := range []time.Duration{10 * time.Second, 20 * time.Second} {
			phy.Outage(sim, wifiUp, 0, start, 3*time.Second)
		}
		const packets = 3000 // 30 s at 100 pkt/s
		for i := 0; i < packets; i++ {
			sim.Schedule(time.Duration(i)*10*time.Millisecond, func() { marsim.Send(sim, s.Client, 1, 1000) })
		}
		if err := sim.RunUntil(35 * time.Second); err != nil {
			panic(err)
		}
		rs := s.Tally.Stream(1)
		out.Rows = append(out.Rows, SectionVIDRow{
			Behavior:  bh.name,
			Delivered: float64(rs.Delivered) / packets,
			MeanLat:   rs.Latency.Mean().Round(100 * time.Microsecond),
			LTEBytes:  s.Paths.Stats().Paths[1].SentBytes,
		})
	}
	return out
}

// dialPaths is marsim.DialPaths for a study: client subflows at addresses
// 1, 3, ..., the server at 2, and a bad configuration is a bug.
func dialPaths(sim *simnet.Sim, down simnet.Handler, clientMux, serverMux *simnet.Demux, ps wire.PathSetConfig, cfg wire.Config, ups ...simnet.Handler) *marsim.LinkSession {
	s, err := marsim.DialPaths(sim, 1, down, clientMux, serverMux, ps, cfg, ups...)
	if err != nil {
		panic(err)
	}
	return s
}

// Format renders the behaviours.
func (r SectionVIDResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section VI-D — multipath behaviours under WiFi outages (2x3s gaps in 30s)\n")
	fmt.Fprintf(&b, "%-30s %10s %12s %12s\n", "Behavior", "in-time", "mean lat", "LTE MB")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-30s %9.1f%% %12v %12.2f\n",
			row.Behavior, row.Delivered*100, row.MeanLat, float64(row.LTEBytes)/1e6)
	}
	return b.String()
}

// SectionVIFRow is one placement instance size.
type SectionVIFRow struct {
	Users, Sites      int
	GreedyC, ExactC   int
	RandomC           float64 // mean over trials
	GreedyNs, ExactNs int64
}

// SectionVIFResult is the edge-placement study.
type SectionVIFResult struct {
	Budget time.Duration
	Rows   []SectionVIFRow
}

// SectionVIF solves min-|C| edge datacenter placement on growing synthetic
// cities, comparing the greedy approximation against the exact solver
// (small instances) and a random baseline.
func SectionVIF(seed int64) SectionVIFResult {
	res := SectionVIFResult{Budget: 8 * time.Millisecond}
	rng := rand.New(rand.NewSource(seed))
	sizes := []struct{ users, sites int }{
		{15, 8}, {30, 12}, {60, 16}, {120, 24},
	}
	for _, sz := range sizes {
		inst := edge.NewGrid(sz.users, sz.sites, 30, res.Budget, seed+int64(sz.users))
		if !inst.Feasible() {
			continue
		}
		t0 := time.Now()
		g, err := edge.Greedy(inst)
		if err != nil {
			panic(err)
		}
		gNs := time.Since(t0).Nanoseconds()

		exactC := -1
		var eNs int64
		if sz.users <= 64 {
			t0 = time.Now()
			e, err := edge.Exact(inst, 64)
			if err != nil {
				panic(err)
			}
			eNs = time.Since(t0).Nanoseconds()
			exactC = len(e)
		}
		var randomSum int
		const trials = 10
		for i := 0; i < trials; i++ {
			r, err := edge.RandomBaseline(inst, rng)
			if err != nil {
				panic(err)
			}
			randomSum += len(r)
		}
		res.Rows = append(res.Rows, SectionVIFRow{
			Users: sz.users, Sites: sz.sites,
			GreedyC: len(g), ExactC: exactC,
			RandomC:  float64(randomSum) / trials,
			GreedyNs: gNs, ExactNs: eNs,
		})
	}
	return res
}

// Format renders the placement study.
func (r SectionVIFResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section VI-F — edge datacenter placement (min |C|, %v network budget)\n", r.Budget)
	fmt.Fprintf(&b, "%-8s %-8s %-9s %-8s %-9s %-12s %-12s\n",
		"users", "sites", "greedy", "exact", "random", "greedy time", "exact time")
	for _, row := range r.Rows {
		exact := "-"
		eTime := "-"
		if row.ExactC >= 0 {
			exact = fmt.Sprintf("%d", row.ExactC)
			eTime = time.Duration(row.ExactNs).Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%-8d %-8d %-9d %-8s %-9.1f %-12v %-12s\n",
			row.Users, row.Sites, row.GreedyC, exact, row.RandomC,
			time.Duration(row.GreedyNs).Round(time.Microsecond), eTime)
	}
	return b.String()
}

// SectionVIHRow is one queueing discipline result.
type SectionVIHRow struct {
	Discipline string
	MARp50     time.Duration
	MARp99     time.Duration
	MARLoss    float64
	BulkMbps   float64
}

// SectionVIHResult is the uplink-queueing study.
type SectionVIHResult struct {
	Rows []SectionVIHRow
}

// SectionVIH shares a 2 Mb/s uplink between a latency-sensitive MAR control
// stream and two bulk TCP uploads under three kernel queue disciplines:
// the oversized DropTail FIFO (~1000 packets) the paper blames, FQ-CoDel
// (the paper's suggested mitigation), and a strict-priority queue keyed on
// the ARTP priority field. Reported: MAR packet delay percentiles and bulk
// goodput.
func SectionVIH(seed int64) SectionVIHResult {
	type disc struct {
		name string
		mk   func() simnet.Queue
	}
	discs := []disc{
		{"DropTail(1000)", func() simnet.Queue { return simnet.NewDropTail(1000) }},
		{"FQ-CoDel", func() simnet.Queue { return queue.NewFQCoDel(1000) }},
		{"StrictPriority", func() simnet.Queue {
			q := queue.NewStrictPriority(2, 500)
			q.Classify = func(p *simnet.Packet) int {
				if b, ok := p.Payload.([]byte); ok {
					if h, _, err := wire.DecodeFrame(b); err == nil && h.Type == wire.TypeData && core.Priority(h.Prio) == core.PrioHighest {
						return 0
					}
				}
				if p.Kind == tcp.KindAck {
					return 0 // let ACKs breathe, like real priority configs do
				}
				return 1
			}
			return q
		}},
	}
	var out SectionVIHResult
	for i, d := range discs {
		sim := simnet.New(seed + int64(i))
		clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
		up := simnet.NewLink(sim, 2e6, 15*time.Millisecond, serverMux, simnet.WithQueue(d.mk()))
		down := simnet.NewLink(sim, 16e6, 15*time.Millisecond, clientMux)

		// MAR control stream over ARTP.
		ctl := marsim.DialLinks(sim, 1, up, down, clientMux, serverMux, wire.Config{StartBudget: 0.3e6,
			Streams: []wire.StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 0.2e6}}})
		const packets = 2000 // 20 s at 100/s
		for i := 0; i < packets; i++ {
			sim.Schedule(time.Duration(i)*10*time.Millisecond, func() { marsim.Send(sim, ctl.Client, 1, 200) })
		}

		// Two bulk TCP uploads sharing the uplink.
		var bulk []*tcp.Flow
		for j := 0; j < 2; j++ {
			fl := tcp.NewFlow(sim, tcp.FlowConfig{
				SenderAddr: simnet.Addr(10 + j), ReceiverAddr: simnet.Addr(20 + j),
				FlowID:  uint64(10 + j),
				Forward: up, Reverse: down,
				SenderDemux: clientMux, ReceiverDemux: serverMux,
				GoodputBin: time.Second,
			})
			fl.Start()
			bulk = append(bulk, fl)
		}

		if err := sim.RunUntil(25 * time.Second); err != nil {
			panic(err)
		}
		rs := ctl.Tally.Stream(1)
		var bulkRate float64
		for _, fl := range bulk {
			bulkRate += fl.Receiver.Goodput.Series("g").Window(5*time.Second, 25*time.Second)
		}
		out.Rows = append(out.Rows, SectionVIHRow{
			Discipline: d.name,
			MARp50:     rs.Latency.Percentile(50).Round(100 * time.Microsecond),
			MARp99:     rs.Latency.Percentile(99).Round(100 * time.Microsecond),
			MARLoss:    1 - float64(rs.Delivered)/packets,
			BulkMbps:   bulkRate / 1e6,
		})
	}
	return out
}

// Format renders the AQM comparison.
func (r SectionVIHResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section VI-H — uplink queueing for MAR control traffic (2 Mb/s uplink + 2 TCP uploads)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %10s %12s\n", "Discipline", "MAR p50", "MAR p99", "MAR loss", "bulk rate")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12v %12v %9.1f%% %9.2f Mb/s\n",
			row.Discipline, row.MARp50, row.MARp99, row.MARLoss*100, row.BulkMbps)
	}
	return b.String()
}
