// D2D privacy example (Sections VI-E and VI-G): smart glasses offload
// camera frames to a companion smartphone over WiFi-Direct while the
// phone's owner walks around. Before any frame leaves the glasses, the
// privacy pipeline scrubs sensitive regions ("at least faces, license
// plates and visible street plates should be blurred before sending to
// other users for processing"); the D2D link's rate follows the distance
// between the devices, and the session survives the helper walking out of
// range.
package main

import (
	"fmt"
	"log"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/phy"
	"marnet/internal/simnet"
	"marnet/internal/vision"
	"marnet/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Privacy pipeline on a real frame. -------------------------------
	frame := vision.Scene(vision.SceneConfig{W: 320, H: 240, Rects: 30, NoiseStd: 2}, 17)
	regions := vision.SensitiveRegions(frame, 20, 8, 6)
	redacted := vision.Redact(frame, regions, vision.RedactFill, 0)
	leak := vision.LeakScore(frame, redacted, regions, 20)
	fmt.Printf("privacy scrub: %d sensitive regions redacted, residual structure %.1f%%\n",
		len(regions), leak*100)

	// Feature extraction still works on the redacted frame outside the
	// scrubbed areas — the helper can do useful vision without seeing the
	// private content.
	before := len(vision.DetectFAST(frame, 20, 0))
	after := len(vision.DetectFAST(redacted, 20, 0))
	fmt.Printf("corners: %d before, %d after redaction (the rest of the scene survives)\n\n", before, after)

	// --- Mobile D2D session. ---------------------------------------------
	sim := simnet.New(8)
	glassesMux, phoneMux := simnet.NewDemux(), simnet.NewDemux()
	up := simnet.NewLink(sim, phy.WiFiDirect.Up, phy.WiFiDirect.OneWay, phoneMux,
		simnet.WithJitter(phy.WiFiDirect.Jitter), simnet.WithLoss(phy.WiFiDirect.Loss))
	down := simnet.NewLink(sim, phy.WiFiDirect.Down, phy.WiFiDirect.OneWay, glassesMux)

	// The phone's owner wanders a 600x600 m plaza at 25 m/s (a cyclist);
	// the glasses stay at the center. WiFi-Direct dies past 200 m.
	walker := phy.NewWalker(sim, 300, 300, 25, 600)
	phy.TrackD2DLink(sim, up, walker, 300, 300, phy.WiFiDirect.Up, phy.WiFiDirectRangeM,
		phy.WiFiDirect.Loss, 100*time.Millisecond, time.Minute)

	// Frames carry a hard deadline, so they ride the no-delay priority:
	// under congestion fresh frames replace stale ones instead of queueing
	// behind them (the paper's "Medium priority 2" semantics). The stream's
	// 6 Mb/s, not the budget, bounds what the glasses send: growing
	// additively, the budget never falls below 11 Mb/s in this walk.
	// (Growing it 25 % per RTT instead, a quarter of the frames arrive
	// late rather than 4 %.)
	d2d := marsim.DialLinks(sim, 1, up, down, glassesMux, phoneMux, wire.Config{StartBudget: 20e6, Streams: []wire.StreamSpec{{
		ID: 1, Class: core.ClassLossRecovery, Priority: core.PrioNoDelay, Rate: 6e6, Deadline: 150 * time.Millisecond,
	}}})
	// 30 FPS of redacted frames, chunked to MTU.
	frameBytes := redacted.Bytes() / 4 // compressed
	for i := 0; i < 1800; i++ {
		at := time.Duration(i) * 33 * time.Millisecond
		sim.ScheduleAt(at, func() {
			remaining := frameBytes
			for remaining > 0 {
				n := remaining
				if n > 1200 {
					n = 1200
				}
				marsim.Send(sim, d2d.Client, 1, n)
				remaining -= n
			}
		})
	}
	rs := d2d.Tally.Stream(1)
	for sec := 10; sec <= 60; sec += 10 {
		sim.ScheduleAt(time.Duration(sec)*time.Second, func() {
			fmt.Printf("t=%2ds helper at %5.0fm, link %6.1f Mb/s, delivered %d pkts (late %d)\n",
				sec, walker.DistanceTo(300, 300), up.Rate()/1e6, rs.Delivered, rs.Late)
		})
	}
	if err := sim.RunUntil(62 * time.Second); err != nil {
		return err
	}
	st := d2d.Client.Stats(1)
	fmt.Printf("\nsession total: %d delivered, %d late (%.1f %% in time), %d retransmitted; shed %d at the sender\n",
		rs.Delivered, rs.Late, 100*float64(rs.Delivered)/float64(rs.Delivered+rs.Late), st.Retx, st.Shed)
	return nil
}
