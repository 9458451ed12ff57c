// Offload pipeline example: runs the actual pure-Go vision pipeline on a
// synthetic camera frame (real pixels, real features, real homography),
// times each stage, feeds those costs into the paper's Section III cost
// model, and then replays the four offloading strategies over a simulated
// LTE link — every offloaded frame a set of rpc calls over ARTP — to show
// which one holds the 75 ms budget at 30 FPS on a smartphone.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"marnet/internal/device"
	"marnet/internal/mar"
	"marnet/internal/offload"
	"marnet/internal/phy"
	"marnet/internal/simnet"
	"marnet/internal/vision"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Part 1: the real vision workload. -------------------------------
	scene := vision.Scene(vision.SceneConfig{W: 320, H: 240, Rects: 30, NoiseStd: 2}, 7)
	shifted := vision.Warp(scene, vision.Translation(-6, -4))

	t0 := time.Now()
	kps := vision.DetectFAST(scene, 20, 300)
	feats := vision.Describe(scene, kps)
	extractTime := time.Since(t0)

	t0 = time.Now()
	kps2 := vision.DetectFAST(shifted, 20, 300)
	feats2 := vision.Describe(shifted, kps2)
	matches := vision.MatchFeatures(feats, feats2, 60, 0.8)
	res, err := vision.EstimateHomography(feats, feats2, matches, vision.RansacConfig{}, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	matchTime := time.Since(t0)

	hx, hy, _ := res.H.Apply(100, 100)
	fmt.Printf("vision pipeline on a %dx%d frame:\n", scene.W, scene.H)
	fmt.Printf("  %d keypoints, %d descriptors, %d matches, %d inliers\n",
		len(kps), len(feats), len(matches), len(res.Inliers))
	fmt.Printf("  recovered camera motion: (100,100) -> (%.1f,%.1f) [truth (106,104)]\n", hx, hy)
	fmt.Printf("  extraction %v, matching+RANSAC %v on this machine\n\n", extractTime, matchTime)
	fmt.Printf("  offloading payloads: frame %d B vs features %d B (%.0fx smaller)\n\n",
		scene.Bytes(), len(feats)*vision.FeatureWireBytes,
		float64(scene.Bytes())/float64(len(feats)*vision.FeatureWireBytes))

	// --- Part 2: the cost model (Section III equations). -----------------
	app := mar.App{FPS: 30, OpsPerFrame: offload.ExtractOps + offload.MatchOps}
	smartphone, err := device.Lookup("Smartphone")
	if err != nil {
		return err
	}
	cloud, err := device.Lookup("Cloud computing")
	if err != nil {
		return err
	}
	link := mar.Link{UpBps: phy.LTE.Up, DownBps: phy.LTE.Down, OneWay: phy.LTE.OneWay}
	name, delay, err := mar.BestStrategy(app, smartphone.ComputeOps, mar.OffloadParams{
		Rm: smartphone.ComputeOps, Rc: cloud.ComputeOps,
		Link: link, Y: 1,
		UploadBytes: offload.FrameBytes, ResultBytes: offload.PoseBytes,
	}, 1)
	if err != nil {
		return err
	}
	fmt.Printf("cost model: best strategy on a smartphone over LTE = %s (%v per frame, deadline %v)\n\n",
		name, delay.Round(time.Millisecond), app.Deadline().Round(time.Millisecond))

	// --- Part 3: replay all four strategies over a simulated link. -------
	// Each offloaded frame is a set of rpc calls over ARTP (wire.Conn) on
	// the simulated LTE link; the cloud's compute is the server's service
	// model.
	// A frame whose calls fail (ARTP gave up on them within the call
	// deadline) is a miss without a latency: "failed" counts them.
	fmt.Printf("%-12s %12s %12s %10s %8s %12s\n", "pipeline", "mean lat", "p95 lat", "<=75ms", "failed", "uplink MB/s")
	best, bestHit := "", 0.0
	for _, pl := range offload.StandardPipelines() {
		sim := simnet.New(3)
		clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
		up := phy.LTE.Uplink(sim, serverMux)
		down := phy.LTE.Downlink(sim, clientMux)
		r, err := offload.NewRunner(sim, pl, cloud.ComputeOps, up, down, clientMux, serverMux)
		if err != nil {
			return err
		}
		if err := r.Run(smartphone.ComputeOps, 30, mar.MaxTolerableRTT, 10*time.Second); err != nil {
			return err
		}
		if err := sim.RunUntil(15 * time.Second); err != nil {
			return err
		}
		hit := float64(r.DeadlineHits) / float64(r.DeadlineHits+r.DeadlineMiss)
		if hit > bestHit {
			best, bestHit = pl.Name, hit
		}
		fmt.Printf("%-12s %12v %12v %9.1f%% %8d %12.2f\n",
			pl.Name,
			r.Latency.Mean().Round(100*time.Microsecond),
			r.Latency.Percentile(95).Round(100*time.Microsecond),
			100*hit, r.Failed,
			float64(r.UpBytes)/10/1e6)
	}
	fmt.Printf("\non a smartphone over LTE, %s holds the 75 ms budget best: %.1f %% of frames\n", best, 100*bestHit)
	return nil
}
