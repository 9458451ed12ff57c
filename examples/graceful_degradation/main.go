// Graceful degradation example: the Figure 4 story told live. A MAR
// application sends metadata, sensor samples and GOP video over a link
// that is squeezed twice; watch ARTP shed the adjustable traffic while the
// essential traffic never stops — the protocol degrades, the session never
// breaks.
package main

import (
	"fmt"
	"log"
	"time"

	"marnet/internal/mar"
	"marnet/internal/marsim"
	"marnet/internal/simnet"
	"marnet/internal/trace"
	"marnet/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sim := simnet.New(4)
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	up := simnet.NewLink(sim, 4e6, 15*time.Millisecond, serverMux)
	down := simnet.NewLink(sim, 4e6, 15*time.Millisecond, clientMux)

	meta, err := mar.NewMetadataSource(sim, 1, mar.MetadataConfig{Bytes: 150, Interval: 20 * time.Millisecond})
	if err != nil {
		return err
	}
	sensors, err := mar.NewSensorSource(sim, 2, mar.SensorConfig{SampleBytes: 250, SamplesPerS: 200})
	if err != nil {
		return err
	}
	video, err := mar.NewVideoSource(sim, 3, mar.VideoConfig{
		FPS: 30, GOP: 10, Bitrate: 2.4e6, Deadline: 250 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	s := marsim.DialLinks(sim, 1, up, down, clientMux, serverMux, wire.Config{
		Streams:     []wire.StreamSpec{meta.Spec, sensors.Spec, video.Ref, video.Inter},
		StartBudget: 3.5e6,
	})
	const horizon = 30 * time.Second
	meta.Start(s.Client, horizon)
	sensors.Start(s.Client, horizon)
	video.Start(s.Client, horizon)

	streams := map[string]uint16{
		"metadata": meta.Spec.ID, "sensors": sensors.Spec.ID,
		"ref-frames": video.Ref.ID, "inter-frames": video.Inter.ID,
	}
	for _, id := range streams {
		s.Tally.Stream(id).Goodput = trace.NewThroughput(time.Second)
	}
	rate := func(name string) float64 { return s.Tally.Stream(streams[name]).Goodput.Rate(sim.Now() - time.Second) }

	// Two squeezes: plenty -> tight -> barely-anything.
	sim.ScheduleAt(10*time.Second, func() {
		up.SetRate(1.5e6)
		fmt.Println("t=10s  *** uplink squeezed to 1.5 Mb/s ***")
	})
	sim.ScheduleAt(20*time.Second, func() {
		up.SetRate(0.4e6)
		fmt.Println("t=20s  *** uplink squeezed to 0.4 Mb/s ***")
	})

	// Narrate once per second.
	for sec := 1; sec <= 30; sec++ {
		sim.ScheduleAt(time.Duration(sec)*time.Second, func() {
			refQ, interQ := video.Quality()
			fmt.Printf("t=%2ds budget=%4.2f Mb/s  meta=%6.0f  sensors=%7.0f  ref=%8.0f  inter=%8.0f b/s  quality(ref=%.2f inter=%.2f sensors=%.2f)\n",
				sec, s.Client.Budget()/1e6, rate("metadata"), rate("sensors"), rate("ref-frames"), rate("inter-frames"),
				refQ, interQ, sensors.RateScale())
		})
	}
	if err := sim.RunUntil(horizon + 2*time.Second); err != nil {
		return err
	}

	fmt.Printf("\nmetadata delivered %d/%d — the critical class survived both squeezes.\n",
		s.Tally.Stream(meta.Spec.ID).Delivered, meta.Generated)
	return nil
}
