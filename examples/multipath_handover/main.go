// Multipath handover example: a MAR stream rides WiFi with an LTE path on
// standby (the paper's "WiFi all the time, 4G for handover" behaviour).
// When the WiFi AP drops for three seconds — the multi-second handover gap
// of Section IV-A4 — the path manager's probes notice, the frames in flight
// on WiFi move to LTE, and traffic comes back when WiFi does: the session
// never stalls.
package main

import (
	"fmt"
	"log"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/obs"
	"marnet/internal/phy"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sim := simnet.New(6)
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	wifiUp := simnet.NewLink(sim, 20e6, 8*time.Millisecond, serverMux, simnet.WithJitter(3*time.Millisecond))
	lteUp := phy.LTE.Uplink(sim, serverMux)
	down := simnet.NewLink(sim, 50e6, 8*time.Millisecond, clientMux)

	s, err := marsim.DialPaths(sim, 1, down, clientMux, serverMux, wire.PathOptions{
		OnPathState: func(path string, st wire.PathState) {
			if path == "path0" { // WiFi; the subflows are named in the order given below
				fmt.Printf("t=%.2fs *** WiFi %s ***\n", sim.Now().Seconds(), st)
			}
		},
	}, wire.Config{StartBudget: 5e6, Streams: []wire.StreamSpec{{
		ID: 1, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 2e6, Deadline: 300 * time.Millisecond,
	}}}, wifiUp, lteUp) // preference: WiFi first, while its RTT is the lower
	if err != nil {
		return err
	}

	// WiFi outage from t=5s to t=8s.
	phy.Outage(sim, wifiUp, 0, 5*time.Second, 3*time.Second)

	const packets = 1500 // 15 s at 100 pkt/s
	for i := 0; i < packets; i++ {
		sim.ScheduleAt(time.Duration(i)*10*time.Millisecond, func() { marsim.Send(sim, s.Client, 1, 1000) })
	}
	// The path counters, read as a scrape of the conn's metrics would.
	reg := obs.NewRegistry()
	s.Client.PublishMetrics(reg)
	wifi, lte := obs.L("path", "path0"), obs.L("path", "path1")
	metric := func(name string, path obs.Label) float64 { return marsim.Metric(reg, name, path) }
	rtt := func(path obs.Label) time.Duration {
		return time.Duration(metric("mar_wire_path_srtt_seconds", path) * float64(time.Second)).Round(time.Millisecond)
	}
	rs := s.Tally.Stream(1)
	for sec := 1; sec <= 15; sec++ {
		sim.ScheduleAt(time.Duration(sec)*time.Second, func() {
			fmt.Printf("t=%2ds delivered=%4d wifi-sent=%5.0f lte-sent=%4.0f wifi-rtt=%v lte-rtt=%v\n",
				sec, rs.Delivered, metric("mar_wire_path_sent_frames_total", wifi), metric("mar_wire_path_sent_frames_total", lte),
				rtt(wifi), rtt(lte))
		})
	}
	// The longest stretch without an in-time delivery around the outage is
	// what the user would see as a freeze.
	var gap, last time.Duration
	var seen int64
	for at := 4 * time.Second; at <= 10*time.Second; at += time.Millisecond {
		sim.ScheduleAt(at, func() {
			if rs.Delivered > seen || last == 0 {
				seen, last = rs.Delivered, at
			}
			gap = max(gap, at-last)
		})
	}
	if err := sim.RunUntil(16 * time.Second); err != nil {
		return err
	}

	fmt.Printf("\nin-time delivery: %d/%d (%.1f%%) through a 3 s WiFi outage; LTE carried %.2f MB\n",
		rs.Delivered, packets, 100*float64(rs.Delivered)/packets, metric("mar_wire_path_sent_bytes_total", lte)/1e6)
	if gap > 300*time.Millisecond {
		return fmt.Errorf("the stream stalled: %v without an in-time delivery", gap)
	}
	fmt.Printf("longest gap between deliveries across the outage: %v — no stall\n", gap)
	return nil
}
