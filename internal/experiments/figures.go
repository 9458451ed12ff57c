package experiments

import (
	"fmt"
	"strings"
	"time"

	"marnet/internal/mar"
	"marnet/internal/marsim"
	"marnet/internal/offload"
	"marnet/internal/phy"
	"marnet/internal/simnet"
	"marnet/internal/tcp"
	"marnet/internal/trace"
	"marnet/internal/wire"
)

// Figure2Result reproduces the 802.11 performance anomaly.
type Figure2Result struct {
	// Simulated per-station goodput in bits/s.
	BothFastA, BothFastB float64 // A and B both in the 54 Mb/s zone
	MixedA, MixedB       float64 // B moved to the 18 Mb/s zone
	// Analytic saturation values for comparison.
	AnalyticBothFast float64
	AnalyticMixed    float64
}

// Figure2 saturates two stations on a shared DCF medium and reports their
// goodput before and after station B falls back from 54 to 18 Mb/s.
func Figure2(seed int64) Figure2Result {
	run := func(rateB float64) (a, b float64) {
		sim := simnet.New(seed)
		ap := &simnet.Sink{}
		m := phy.NewMedium(sim, phy.DefaultFrameOverhead)
		stA := m.AddStation(54e6, ap, 0)
		stB := m.AddStation(rateB, ap, 0)
		const frame = 1500
		for i := 0; i < 4000; i++ {
			stA.Send(&simnet.Packet{Size: frame})
			stB.Send(&simnet.Packet{Size: frame})
		}
		if err := sim.RunUntil(time.Second); err != nil {
			panic(err)
		}
		return float64(stA.SentBytes) * 8, float64(stB.SentBytes) * 8
	}
	var r Figure2Result
	r.BothFastA, r.BothFastB = run(54e6)
	r.MixedA, r.MixedB = run(18e6)
	r.AnalyticBothFast = phy.AnomalyThroughput(1500, phy.DefaultFrameOverhead, []float64{54e6, 54e6})[0]
	r.AnalyticMixed = phy.AnomalyThroughput(1500, phy.DefaultFrameOverhead, []float64{54e6, 18e6})[0]
	return r
}

// Format renders the anomaly comparison.
func (r Figure2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — 802.11 performance anomaly (station goodput)\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %14s\n", "Scenario", "User A", "User B", "analytic/stn")
	fmt.Fprintf(&b, "%-28s %12s %12s %14s\n", "A,B both @54 Mb/s",
		trace.Mbps(r.BothFastA), trace.Mbps(r.BothFastB), trace.Mbps(r.AnalyticBothFast))
	fmt.Fprintf(&b, "%-28s %12s %12s %14s\n", "B moves to 18 Mb/s zone",
		trace.Mbps(r.MixedA), trace.Mbps(r.MixedB), trace.Mbps(r.AnalyticMixed))
	fmt.Fprintf(&b, "A loses %.0f%% of its goodput because of B's rate fallback.\n",
		100*(1-r.MixedA/r.BothFastA))
	return b.String()
}

// Figure3Result reproduces the Heusse et al. asymmetric-link dynamics.
type Figure3Result struct {
	// DownloadGoodput is the download's goodput series (1 s bins) over the
	// whole run; uploads start at UploadStart times.
	DownloadGoodput *trace.Series
	UploadStarts    []time.Duration
	// Window means (bits/s) for the phases: download alone, with one
	// upload, with two uploads.
	Alone, With1, With2 float64
}

// Figure3 runs a TCP download over an ADSL-like 8 Mb/s / 1 Mb/s link whose
// uplink buffer is oversized (1000 packets, the paper's Section VI-H
// figure), then starts one and then two TCP uploads. Download ACKs share
// the uplink queue with upload data, reproducing Figure 3's collapse.
func Figure3(seed int64) Figure3Result {
	sim := simnet.New(seed)
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	// Asymmetric access link: generous downlink, thin uplink with an
	// oversized buffer.
	down := simnet.NewLink(sim, 8e6, 15*time.Millisecond, clientMux,
		simnet.WithQueue(simnet.NewDropTail(100)))
	up := simnet.NewLink(sim, 1e6, 15*time.Millisecond, serverMux,
		simnet.WithQueue(simnet.NewDropTail(1000)))

	// Download: server (addr 10) -> client (addr 1); ACKs traverse `up`.
	dl := tcp.NewFlow(sim, tcp.FlowConfig{
		SenderAddr: 10, ReceiverAddr: 1, FlowID: 1,
		Forward: down, Reverse: up,
		SenderDemux: serverMux, ReceiverDemux: clientMux,
		GoodputBin: time.Second,
	})
	dl.Start()

	// Uploads: client (addr 2,3) -> server (addr 11,12); data shares `up`.
	starts := []time.Duration{20 * time.Second, 40 * time.Second}
	for i, at := range starts {
		i := i
		ul := tcp.NewFlow(sim, tcp.FlowConfig{
			SenderAddr: simnet.Addr(2 + i), ReceiverAddr: simnet.Addr(11 + i), FlowID: uint64(2 + i),
			Forward: up, Reverse: down,
			SenderDemux: clientMux, ReceiverDemux: serverMux,
		})
		sim.ScheduleAt(at, ul.Start)
	}
	if err := sim.RunUntil(60 * time.Second); err != nil {
		panic(err)
	}
	series := dl.Receiver.Goodput.Series("download")
	return Figure3Result{
		DownloadGoodput: series,
		UploadStarts:    starts,
		Alone:           series.Window(5*time.Second, 20*time.Second),
		With1:           series.Window(25*time.Second, 40*time.Second),
		With2:           series.Window(45*time.Second, 60*time.Second),
	}
}

// Format renders the three phases.
func (r Figure3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — impact of uploads on a TCP download (8 Mb/s down / 1 Mb/s up, 1000-pkt uplink buffer)\n")
	fmt.Fprintf(&b, "%-28s %14s\n", "Phase", "download goodput")
	fmt.Fprintf(&b, "%-28s %14s\n", "download alone", trace.Mbps(r.Alone))
	fmt.Fprintf(&b, "%-28s %14s\n", "+1 concurrent upload", trace.Mbps(r.With1))
	fmt.Fprintf(&b, "%-28s %14s\n", "+2 concurrent uploads", trace.Mbps(r.With2))
	fmt.Fprintf(&b, "collapse factor with uploads: %.0fx\n", r.Alone/maxf(r.With1, 1))
	fmt.Fprintf(&b, "\ndownload goodput (b/s) — uploads start at %v and %v:\n",
		r.UploadStarts[0], r.UploadStarts[1])
	b.WriteString(trace.ASCIIPlot(72, 10, r.DownloadGoodput))
	return b.String()
}

// Figure4Result contrasts TCP's congestion window with ARTP's graceful
// degradation across two congestion episodes.
type Figure4Result struct {
	// TCPCwnd is the TCP sender's cwnd (segments) over time.
	TCPCwnd *trace.Series
	// Budget is ARTP's sending budget over time, sampled every 100 ms.
	Budget *trace.Series
	// PerStream delivered-goodput series (bits/s, 500 ms bins), keyed by
	// the Figure 4 traffic names.
	PerStream map[string]*trace.Series
	// Squeezes are the times the path rate was cut.
	Squeezes []time.Duration
	// Phase summaries: per-stream mean delivered rate in each phase.
	Phase func(name string, phase int) float64 `json:"-"`
	// Delivered / generated counts for the critical stream.
	MetaGenerated, MetaDelivered int64
}

// Figure4 drives the paper's example flow — connection metadata, sensor
// data, video reference frames, video interframes — through two successive
// squeezes of the uplink, alongside a TCP flow on an identical but
// independent link experiencing the same squeezes.
func Figure4(seed int64) Figure4Result {
	sim := simnet.New(seed)

	// ARTP session over link A.
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	upA := simnet.NewLink(sim, 4e6, 15*time.Millisecond, serverMux)
	downA := simnet.NewLink(sim, 4e6, 15*time.Millisecond, clientMux)
	meta, err := mar.NewMetadataSource(sim, 1, mar.MetadataConfig{Bytes: 150, Interval: 20 * time.Millisecond})
	if err != nil {
		panic(err)
	}
	sensors, err := mar.NewSensorSource(sim, 2, mar.SensorConfig{SampleBytes: 250, SamplesPerS: 200})
	if err != nil {
		panic(err)
	}
	video, err := mar.NewVideoSource(sim, 3, mar.VideoConfig{
		FPS: 30, GOP: 10, Bitrate: 2.4e6, Deadline: 250 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	s := marsim.DialLinks(sim, 1, upA, downA, clientMux, serverMux, wire.Config{
		Streams:     []wire.StreamSpec{meta.Spec, sensors.Spec, video.Ref, video.Inter},
		StartBudget: 3.5e6,
	})
	const horizon = 45 * time.Second
	meta.Start(s.Client, horizon)
	sensors.Start(s.Client, horizon)
	video.Start(s.Client, horizon)

	// Goodput samplers at the receiver, and the budget every 100 ms.
	names := map[string]uint16{
		"metadata":     meta.Spec.ID,
		"sensors":      sensors.Spec.ID,
		"ref-frames":   video.Ref.ID,
		"inter-frames": video.Inter.ID,
	}
	for _, id := range names {
		s.Tally.Stream(id).Goodput = trace.NewThroughput(500 * time.Millisecond)
	}
	budget := trace.NewSeries("budget")
	for at := time.Duration(0); at <= horizon; at += 100 * time.Millisecond {
		sim.ScheduleAt(at, func() { budget.Add(at, s.Client.Budget()) })
	}

	// TCP flow over an identical, independent link B with the same squeeze
	// schedule (the cwnd comparison curve).
	tcpClientMux, tcpServerMux := simnet.NewDemux(), simnet.NewDemux()
	// A sanely sized buffer so Reno actually sees losses and saws.
	upB := simnet.NewLink(sim, 4e6, 15*time.Millisecond, tcpServerMux,
		simnet.WithQueue(simnet.NewDropTail(50)))
	downB := simnet.NewLink(sim, 4e6, 15*time.Millisecond, tcpClientMux)
	fl := tcp.NewFlow(sim, tcp.FlowConfig{
		SenderAddr: 1, ReceiverAddr: 2, FlowID: 9,
		Forward: upB, Reverse: downB,
		SenderDemux: tcpClientMux, ReceiverDemux: tcpServerMux,
		TraceCwnd: true,
	})
	fl.Start()

	squeezes := []time.Duration{15 * time.Second, 30 * time.Second}
	sim.ScheduleAt(squeezes[0], func() { upA.SetRate(1.6e6); upB.SetRate(1.6e6) })
	sim.ScheduleAt(squeezes[1], func() { upA.SetRate(0.45e6); upB.SetRate(0.45e6) })

	// Run past the horizon so queued traffic drains before we read the
	// delivery counters.
	if err := sim.RunUntil(horizon + 3*time.Second); err != nil {
		panic(err)
	}

	perStream := make(map[string]*trace.Series, len(names))
	for name, id := range names {
		perStream[name] = s.Tally.Stream(id).Goodput.Series(name)
	}
	res := Figure4Result{
		TCPCwnd:       fl.Sender.CwndTrace,
		Budget:        budget,
		PerStream:     perStream,
		Squeezes:      squeezes,
		MetaGenerated: meta.Generated,
		MetaDelivered: s.Tally.Stream(meta.Spec.ID).Delivered,
	}
	res.Phase = func(name string, phase int) float64 {
		windows := [][2]time.Duration{
			{5 * time.Second, 15 * time.Second},
			{20 * time.Second, 30 * time.Second},
			{35 * time.Second, 45 * time.Second},
		}
		w := windows[phase]
		return perStream[name].Window(w[0], w[1])
	}
	return res
}

// Format renders the per-phase per-stream rates.
func (r Figure4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — TCP congestion window vs ARTP graceful degradation\n")
	fmt.Fprintf(&b, "link: 4 Mb/s -> 1.6 Mb/s @%v -> 0.45 Mb/s @%v\n", r.Squeezes[0], r.Squeezes[1])
	fmt.Fprintf(&b, "%-14s %14s %14s %14s\n", "stream", "phase 1", "phase 2", "phase 3")
	for _, name := range []string{"metadata", "ref-frames", "sensors", "inter-frames"} {
		fmt.Fprintf(&b, "%-14s %14s %14s %14s\n", name,
			trace.Mbps(r.Phase(name, 0)), trace.Mbps(r.Phase(name, 1)), trace.Mbps(r.Phase(name, 2)))
	}
	fmt.Fprintf(&b, "metadata delivery: %d/%d (never shed)\n", r.MetaDelivered, r.MetaGenerated)
	fmt.Fprintf(&b, "\nTCP congestion window (segments) under the same squeezes:\n")
	b.WriteString(trace.ASCIIPlot(72, 8, trace.Downsample(r.TCPCwnd, 200)))
	fmt.Fprintf(&b, "\nARTP per-class delivered rate (b/s):\n")
	b.WriteString(trace.ASCIIPlot(72, 10,
		r.PerStream["inter-frames"], r.PerStream["ref-frames"],
		r.PerStream["sensors"], r.PerStream["metadata"]))
	return b.String()
}

// Figure5Row is one distributed-offloading topology result.
type Figure5Row struct {
	Scenario  string
	MeanLat   time.Duration
	P95Lat    time.Duration
	HitRate   float64 // fraction of frames within the 75 ms budget
	UplinkMBs float64 // MB shipped by the wearable
	// FrameJ is the wearable's per-frame energy (compute + radio) under
	// the default smartphone-class energy model.
	FrameJ float64
}

// Figure5Result compares the four topologies of Figure 5.
type Figure5Result struct {
	Rows []Figure5Row
}

// Figure5 evaluates the distributed-offloading approaches: a cloud-only
// baseline, the multi-server multipath layout (5a), D2D to a home
// smartphone over the home AP (5b), D2D over LTE-Direct (5c) and over
// WiFi-Direct (5d). The workload is the smart-glasses recognition pipeline
// (the glasses cannot even extract features in time on their own).
func Figure5(seed int64) Figure5Result {
	// The glasses cannot even extract features in time (2e7 ops/s), so two
	// offload shapes exist: full recognition shipped to a capable server
	// (cloud / edge), and — as the paper describes for D2D — only the
	// latency-critical feature extraction shipped to a nearby smartphone
	// ("even simple feature extraction can considerably slow down the
	// process ... other nearby smartphones could assist").
	fullRecognition := offload.Pipeline{
		Name:         "full-recognition",
		RemoteOps:    offload.ExtractOps + offload.MatchOps,
		UploadBytes:  offload.FrameBytes,
		ResultBytes:  offload.PoseBytes,
		TriggerEvery: 1,
	}
	d2dExtraction := offload.Pipeline{
		Name:         "d2d-extraction",
		RemoteOps:    offload.ExtractOps,
		UploadBytes:  offload.FrameBytes,
		ResultBytes:  offload.FeatureBytes,
		TriggerEvery: 1,
	}
	type scen struct {
		name      string
		serverOps float64
		pipeline  offload.Pipeline
		radio     string
		hops      []simnet.PathSpec
	}
	// Helper devices: smartphone 1e8, university edge server 1e9, cloud 2e10.
	scens := []scen{
		{
			name: "cloud only (WiFi)", serverOps: 2e10, pipeline: fullRecognition, radio: phy.WiFiLocal.Name,
			hops: []simnet.PathSpec{
				simnet.Hop(phy.WiFiLocal.Up, 3*time.Millisecond, simnet.WithJitter(2*time.Millisecond)),
				simnet.Hop(phy.Backbone.Up, 14*time.Millisecond, simnet.WithJitter(time.Millisecond)),
			},
		},
		{
			name: "5a multi-server multipath", serverOps: 1e9, pipeline: fullRecognition, radio: phy.WiFiLocal.Name,
			hops: []simnet.PathSpec{
				simnet.Hop(phy.WiFiLocal.Up, 3*time.Millisecond, simnet.WithJitter(time.Millisecond)),
				simnet.Hop(phy.Backbone.Up, 2*time.Millisecond, simnet.WithJitter(time.Millisecond)),
			},
		},
		{
			name: "5b D2D home WiFi", serverOps: 1e8, pipeline: d2dExtraction, radio: phy.WiFiLocal.Name,
			hops: []simnet.PathSpec{
				simnet.Hop(phy.WiFiLocal.Up, 2*time.Millisecond, simnet.WithJitter(time.Millisecond)),
			},
		},
		{
			name: "5c D2D LTE-Direct", serverOps: 1e8, pipeline: d2dExtraction, radio: phy.LTEDirect.Name,
			hops: []simnet.PathSpec{
				simnet.Hop(phy.LTEDirect.Up, phy.LTEDirect.OneWay, simnet.WithJitter(phy.LTEDirect.Jitter)),
			},
		},
		{
			name: "5d D2D WiFi-Direct", serverOps: 1e8, pipeline: d2dExtraction, radio: phy.WiFiDirect.Name,
			hops: []simnet.PathSpec{
				simnet.Hop(phy.WiFiDirect.Up, phy.WiFiDirect.OneWay, simnet.WithJitter(phy.WiFiDirect.Jitter)),
			},
		},
	}
	var out Figure5Result
	for i, sc := range scens {
		sim := simnet.New(seed + int64(i))
		clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
		up := simnet.NewPath(sim, serverMux, sc.hops...)
		down := simnet.NewPath(sim, clientMux, sc.hops...)
		r, err := offload.NewRunner(sim, sc.pipeline, sc.serverOps, up, down, clientMux, serverMux)
		if err != nil {
			panic(err)
		}
		if err := r.Run(2e7, 30, mar.MaxTolerableRTT, 10*time.Second); err != nil {
			panic(err)
		}
		if err := sim.RunUntil(15 * time.Second); err != nil {
			panic(err)
		}
		total := r.DeadlineHits + r.DeadlineMiss
		hit := 0.0
		if total > 0 {
			hit = float64(r.DeadlineHits) / float64(total)
		}
		energy, err := mar.DefaultEnergyModel().PipelineEnergy(
			sc.radio, sc.pipeline.LocalOps, sc.pipeline.UploadBytes, sc.pipeline.ResultBytes)
		if err != nil {
			panic(err)
		}
		out.Rows = append(out.Rows, Figure5Row{
			Scenario:  sc.name,
			MeanLat:   r.Latency.Mean().Round(100 * time.Microsecond),
			P95Lat:    r.Latency.Percentile(95).Round(100 * time.Microsecond),
			HitRate:   hit,
			UplinkMBs: float64(r.UpBytes) / 1e6,
			FrameJ:    energy.Total(),
		})
	}
	return out
}

// Format renders the comparison.
func (r Figure5Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — distributed offloading topologies (smart glasses, 30 FPS recognition)\n")
	fmt.Fprintf(&b, "%-28s %12s %12s %10s %10s %10s\n", "Scenario", "mean lat", "p95 lat", "<=75ms", "uplink MB", "mJ/frame")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %12v %12v %9.1f%% %10.1f %10.1f\n",
			row.Scenario, row.MeanLat, row.P95Lat, row.HitRate*100, row.UplinkMBs, row.FrameJ*1e3)
	}
	return b.String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
