// Quickstart: open an ARTP session over a simulated LTE uplink, declare
// the three baseline traffic classes, send a second of MAR traffic, and
// print what arrived. This is the smallest complete use of the library.
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
	// 1. A deterministic simulator and an LTE uplink/downlink pair built
	//    from the paper's measured LTE profile.
	sim := simnet.New(1)
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	up := phy.LTE.Uplink(sim, serverMux)
	down := phy.LTE.Downlink(sim, clientMux)

	// 2. Three streams, one per traffic class, on a session from the mobile
	//    device to the surrogate: wire.DialPaths over one path, which adds
	//    FEC(8,2), and wire.ListenVia, which repairs from it — the calls a
	//    session on UDP sockets makes, here on simulated links.
	streams := []wire.StreamSpec{
		{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 0.1e6},
		{ID: 2, Class: core.ClassLossRecovery, Priority: core.PrioNoDiscard, Rate: 1.5e6, Deadline: 250 * time.Millisecond},
		{ID: 3, Class: core.ClassFullBestEffort, Priority: core.PrioNoDelay, Rate: 0.5e6},
	}
	s, err := marsim.DialPaths(sim, 1, down, clientMux, serverMux,
		wire.PathOptions{FEC: wire.PathFEC{K: 8, M: 2}},
		wire.Config{StartBudget: 4e6, Streams: streams}, up)
	if err != nil {
		return err
	}

	// 3. Drive one second of traffic; every payload carries its send time,
	//    from which the server's tally measures latency.
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		sim.ScheduleAt(at, func() {
			marsim.Send(sim, s.Client, 1, 100)
			marsim.Send(sim, s.Client, 2, 1000)
			marsim.Send(sim, s.Client, 3, 300)
		})
	}
	if err := sim.RunUntil(3 * time.Second); err != nil {
		return err
	}

	// 4. Inspect the outcome.
	for i, name := range []string{"metadata", "ref-frames", "sensors"} {
		id := streams[i].ID
		rs, st := s.Tally.Stream(id), s.Client.Stats(id)
		fmt.Printf("%-11s delivered=%3d late=%d retx=%d shed=%d p95-latency=%v\n",
			name, rs.Delivered, rs.Late, st.Retx, st.Shed, rs.Latency.Percentile(95).Round(time.Millisecond))
	}
	//    The FEC counters are the conns' metrics, read as a scrape would.
	client, server := obs.NewRegistry(), obs.NewRegistry()
	s.Client.PublishMetrics(client)
	s.Server.PublishMetrics(server)
	fmt.Printf("fec: %.0f parity shards sent, %.0f frames repaired\n",
		marsim.Metric(client, "mar_wire_path_parity_sent_total"), marsim.Metric(server, "mar_wire_path_fec_repaired_total"))
	fmt.Printf("session: budget=%.2f Mb/s srtt=%v\n",
		s.Client.Budget()/1e6, s.Client.SRTT().Round(time.Millisecond))
	return nil
}
