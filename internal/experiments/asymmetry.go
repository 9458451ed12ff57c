package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"marnet/internal/mar"
	"marnet/internal/marsim"
	"marnet/internal/phy"
	"marnet/internal/simnet"
	"marnet/internal/tcp"
	"marnet/internal/wire"
)

// SectionIVDResult quantifies the paper's Section IV-D argument in two
// parts. First, MAR offloading reverses the traffic paradigm: the uplink
// carries frames and sensor data while the downlink only carries results
// and acknowledgments, so the app's upload:download byte ratio is far above
// one — on links provisioned the other way around. Second, the Figure 3
// collapse is not an artifact of an antique baseline: a CUBIC upload
// starves the download just like a Reno one (the problem is the oversized
// FIFO plus loss-based probing, not the specific window curve).
type SectionIVDResult struct {
	// MAR traffic measured over an ARTP session.
	MARUpBytes, MARDownBytes int64
	MARUpDownRatio           float64
	// The provisioned asymmetry of the access links the paper surveys
	// (down/up, so >1 means download-favoring).
	LinkAsymmetry map[string]float64
	// Download goodput with one competing upload, per upload algorithm.
	DownloadAloneBps float64
	DownloadVsReno   float64
	DownloadVsCubic  float64
}

// SectionIVD runs both measurements.
func SectionIVD(seed int64) SectionIVDResult {
	res := SectionIVDResult{LinkAsymmetry: map[string]float64{}}
	for _, p := range []phy.Profile{phy.LTE, phy.HSPAPlus} {
		res.LinkAsymmetry[p.Name] = p.Asymmetry()
	}
	// ADSL-class wired access from the Figure 3 scenario.
	res.LinkAsymmetry["ADSL (8/1)"] = 8

	res.MARUpBytes, res.MARDownBytes = marByteBalance(seed)
	if res.MARDownBytes > 0 {
		res.MARUpDownRatio = float64(res.MARUpBytes) / float64(res.MARDownBytes)
	}

	res.DownloadAloneBps, res.DownloadVsReno = downloadUnderUpload(seed, tcp.Reno)
	_, res.DownloadVsCubic = downloadUnderUpload(seed, tcp.Cubic)
	return res
}

// marByteBalance runs a 10 s offloaded MAR session and counts wire bytes
// in each direction.
func marByteBalance(seed int64) (up, down int64) {
	sim := simnet.New(seed)
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	upLink := simnet.NewLink(sim, 10e6, 15*time.Millisecond, serverMux)
	downLink := simnet.NewLink(sim, 10e6, 15*time.Millisecond, clientMux)
	meta, err := mar.NewMetadataSource(sim, 1, mar.MetadataConfig{Bytes: 150, Interval: 20 * time.Millisecond})
	if err != nil {
		panic(err)
	}
	sensors, err := mar.NewSensorSource(sim, 2, mar.SensorConfig{SampleBytes: 250, SamplesPerS: 100})
	if err != nil {
		panic(err)
	}
	video, err := mar.NewVideoSource(sim, 3, mar.VideoConfig{FPS: 30, GOP: 10, Bitrate: 2.5e6})
	if err != nil {
		panic(err)
	}
	s := marsim.DialLinks(sim, 1, upLink, downLink, clientMux, serverMux, wire.Config{
		Streams:     []wire.StreamSpec{meta.Spec, sensors.Spec, video.Ref, video.Inter},
		StartBudget: 5e6,
	})
	const horizon = 10 * time.Second
	meta.Start(s.Client, horizon)
	sensors.Start(s.Client, horizon)
	video.Start(s.Client, horizon)
	// Server results: small pose/meta responses at frame rate riding the
	// downlink (modelled as plain packets; acks are counted automatically).
	for i := 0; i < 300; i++ {
		sim.Schedule(time.Duration(i)*33*time.Millisecond, func() {
			downLink.Send(&simnet.Packet{
				Src: 2, Dst: 1, Flow: 2, Size: 400,
			})
		})
	}
	if err := sim.RunUntil(horizon + 2*time.Second); err != nil {
		panic(err)
	}
	return upLink.Stats().SentBytes, downLink.Stats().SentBytes
}

// downloadUnderUpload reruns the Figure 3 bottleneck with a single upload
// of the given algorithm and returns (download alone, download with the
// upload) goodputs.
func downloadUnderUpload(seed int64, algo tcp.Algorithm) (alone, with float64) {
	sim := simnet.New(seed)
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	down := simnet.NewLink(sim, 8e6, 15*time.Millisecond, clientMux,
		simnet.WithQueue(simnet.NewDropTail(100)))
	up := simnet.NewLink(sim, 1e6, 15*time.Millisecond, serverMux,
		simnet.WithQueue(simnet.NewDropTail(1000)))
	dl := tcp.NewFlow(sim, tcp.FlowConfig{
		SenderAddr: 10, ReceiverAddr: 1, FlowID: 1,
		Forward: down, Reverse: up,
		SenderDemux: serverMux, ReceiverDemux: clientMux,
		GoodputBin: time.Second,
	})
	dl.Start()
	ul := tcp.NewFlow(sim, tcp.FlowConfig{
		SenderAddr: 2, ReceiverAddr: 11, FlowID: 2,
		Forward: up, Reverse: down,
		SenderDemux: clientMux, ReceiverDemux: serverMux,
		Algo: algo,
	})
	sim.ScheduleAt(20*time.Second, ul.Start)
	if err := sim.RunUntil(40 * time.Second); err != nil {
		panic(err)
	}
	g := dl.Receiver.Goodput.Series("dl")
	return g.Window(5*time.Second, 20*time.Second), g.Window(25*time.Second, 40*time.Second)
}

// Format renders the asymmetry study.
func (r SectionIVDResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section IV-D — MAR reverses the asymmetric traffic paradigm\n")
	fmt.Fprintf(&b, "MAR session wire bytes: up %.2f MB, down %.2f MB -> up:down = %.1f:1\n",
		float64(r.MARUpBytes)/1e6, float64(r.MARDownBytes)/1e6, r.MARUpDownRatio)
	fmt.Fprintf(&b, "while access links are provisioned the other way (down:up):\n")
	names := make([]string, 0, len(r.LinkAsymmetry))
	for name := range r.LinkAsymmetry {
		names = append(names, name)
	}
	sort.Strings(names) // one text per seed
	for _, name := range names {
		fmt.Fprintf(&b, "  %-12s %.2f:1\n", name, r.LinkAsymmetry[name])
	}
	fmt.Fprintf(&b, "download goodput on the shared ADSL link:\n")
	fmt.Fprintf(&b, "  alone          %8.2f Mb/s\n", r.DownloadAloneBps/1e6)
	fmt.Fprintf(&b, "  vs Reno upload %8.2f Mb/s\n", r.DownloadVsReno/1e6)
	fmt.Fprintf(&b, "  vs CUBIC upload%8.2f Mb/s\n", r.DownloadVsCubic/1e6)
	fmt.Fprintf(&b, "the collapse is algorithm-independent: it is the oversized uplink FIFO.\n")
	return b.String()
}
