package offload

import (
	"encoding/binary"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/simnet"
)

// rig is one device and one surrogate over a duplex link.
type rig struct {
	sim      *simnet.Sim
	up, down *simnet.Link
	r        *Runner
}

func newRig(t *testing.T, pl Pipeline, upRate, downRate float64, delay time.Duration, serverOps float64, upOpts ...simnet.LinkOption) *rig {
	t.Helper()
	sim := simnet.New(5)
	cm, sm := simnet.NewDemux(), simnet.NewDemux()
	up := simnet.NewLink(sim, upRate, delay, sm, upOpts...)
	down := simnet.NewLink(sim, downRate, delay, cm)
	r, err := NewRunner(sim, pl, serverOps, up, down, cm, sm)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sim: sim, up: up, down: down, r: r}
}

// run captures frames for dur and lets the simulation run until horizon.
func (g *rig) run(t *testing.T, deviceOps float64, budget, dur, horizon time.Duration) {
	t.Helper()
	if err := g.r.Run(deviceOps, 30, budget, dur); err != nil {
		t.Fatal(err)
	}
	if err := g.sim.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
}

func TestStandardPipelinesShape(t *testing.T) {
	pls := StandardPipelines()
	if len(pls) != 4 {
		t.Fatalf("want 4 pipelines, got %d", len(pls))
	}
	byName := map[string]Pipeline{}
	for _, p := range pls {
		byName[p.Name] = p
	}
	if byName["LocalOnly"].Offloads() {
		t.Error("LocalOnly must not offload")
	}
	if !byName["CloudRidAR"].Offloads() || !byName["FullOffload"].Offloads() {
		t.Error("offloading pipelines must offload")
	}
	// CloudRidAR ships features, which must be much smaller than frames.
	if byName["CloudRidAR"].UploadBytes >= byName["FullOffload"].UploadBytes {
		t.Error("feature upload should be smaller than frame upload")
	}
	if byName["Glimpse"].TriggerEvery <= 1 {
		t.Error("Glimpse should offload only trigger frames")
	}
}

func TestLocalOnlyNeverTouchesNetwork(t *testing.T) {
	// A desktop-class device (1e9) running the full pipeline locally.
	g := newRig(t, StandardPipelines()[0], 10e6, 10e6, 10*time.Millisecond, 2e10)
	g.run(t, 1e9, 33*time.Millisecond, 2*time.Second, 3*time.Second)
	if n := g.up.Stats().SentPackets + g.down.Stats().SentPackets; n != 0 {
		t.Errorf("local pipeline sent %d datagrams", n)
	}
	if g.r.UpBytes != 0 || g.r.seq != 0 {
		t.Errorf("local pipeline used network: %d frames, %d bytes up", g.r.seq, g.r.UpBytes)
	}
	if g.r.Latency.Count() < 60 {
		t.Errorf("only %d frames processed", g.r.Latency.Count())
	}
	// 12e6 ops at 1e9 ops/s = 12 ms per frame.
	if got := g.r.Latency.Mean(); got != 12*time.Millisecond {
		t.Errorf("local latency = %v, want 12ms", got)
	}
}

func TestSmartphoneLocalMissesDeadline(t *testing.T) {
	// Smartphone at 1e8 ops/s: 12e6 ops = 120 ms >> 33 ms deadline. This is
	// the paper's core motivation for offloading.
	g := newRig(t, StandardPipelines()[0], 10e6, 10e6, 10*time.Millisecond, 2e10)
	g.run(t, 1e8, 33*time.Millisecond, time.Second, 2*time.Second)
	if g.r.DeadlineHits != 0 {
		t.Errorf("smartphone hit %d deadlines locally, want 0", g.r.DeadlineHits)
	}
}

func TestCloudRidAROffloadMeetsDeadline(t *testing.T) {
	// Same smartphone, CloudRidAR pipeline over a good link: extraction
	// 3e6/1e8 = 30 ms... still too slow for 30 FPS + network. Use the
	// paper's CloudRidAR context: 20+ FPS achievable at 36 ms link RTT, so
	// check against the 75 ms tolerable bound instead.
	g := newRig(t, StandardPipelines()[2], 20e6, 50e6, 18*time.Millisecond, 2e10)
	g.run(t, 1e8, 75*time.Millisecond, 2*time.Second, 4*time.Second)
	if g.r.seq == 0 {
		t.Fatal("nothing offloaded")
	}
	hitRate := float64(g.r.DeadlineHits) / float64(g.r.DeadlineHits+g.r.DeadlineMiss)
	if hitRate < 0.95 {
		t.Errorf("deadline hit rate = %v, want >= 0.95 (mean lat %v)", hitRate, g.r.Latency.Mean())
	}
}

func TestGlimpseReducesUplinkTraffic(t *testing.T) {
	pls := StandardPipelines()
	full := newRig(t, pls[1], 20e6, 50e6, 10*time.Millisecond, 2e10)
	full.run(t, 1e8, 75*time.Millisecond, 2*time.Second, 4*time.Second)
	glimpse := newRig(t, pls[3], 20e6, 50e6, 10*time.Millisecond, 2e10)
	glimpse.run(t, 1e8, 75*time.Millisecond, 2*time.Second, 4*time.Second)
	// 61 frames (0 s to 2 s): every one ships on FullOffload, frames 0, 10,
	// ..., 60 on Glimpse — 1 in TriggerEvery, each a whole frame.
	const frames = 61
	every := int64(pls[3].TriggerEvery)
	if full.r.UpBytes != frames*FrameBytes {
		t.Errorf("FullOffload uplink %d, want %d", full.r.UpBytes, frames*FrameBytes)
	}
	if want := (frames + every - 1) / every; int64(glimpse.r.seq) != want || glimpse.r.UpBytes != want*FrameBytes {
		t.Errorf("Glimpse shipped %d frames in %d bytes, want %d frames of %d bytes",
			glimpse.r.seq, glimpse.r.UpBytes, want, FrameBytes)
	}
	// The frames it did not ship were processed locally: every frame scored.
	if n := glimpse.r.DeadlineHits + glimpse.r.DeadlineMiss; n != frames {
		t.Errorf("Glimpse scored %d frames, want %d", n, frames)
	}
}

func TestServerComputeDelayApplied(t *testing.T) {
	// Slow server: remote ops dominate latency. The 5 kB upload ships as
	// five calls; the surrogate charges its 100 ms once, on the call that
	// completes the frame.
	pl := Pipeline{Name: "x", RemoteOps: 1e7, UploadBytes: 5000, ResultBytes: 100, TriggerEvery: 1}
	g := newRig(t, pl, 100e6, 100e6, time.Millisecond, 1e8)
	if err := g.r.Run(1e9, 10, 200*time.Millisecond, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := g.sim.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 1e7 ops at 1e8 ops/s = 100 ms of server time + a few ms of network:
	// charged once a frame, not once a call, or a frame would wait 500 ms.
	if got := g.r.Latency.Mean(); got < 100*time.Millisecond || got > 110*time.Millisecond {
		t.Errorf("latency = %v, want ~102ms", got)
	}
	if g.r.seq != 6 || g.r.Latency.Count() != 6 {
		t.Errorf("%d of %d offloaded frames completed, want 6 of 6", g.r.Latency.Count(), g.r.seq)
	}
}

// TestFrameChunksConserveBytes: a frame's calls carry exactly its upload,
// and their answers exactly its result, however it is chunked.
func TestFrameChunksConserveBytes(t *testing.T) {
	for _, pl := range append(StandardPipelines()[1:], Probe,
		Pipeline{Name: "result-heavy", RemoteOps: 1e6, UploadBytes: 3000, ResultBytes: 7000}) {
		g := newRig(t, pl, 100e6, 100e6, time.Millisecond, 1e10)
		var lat time.Duration
		g.r.Ship(time.Second, func(l time.Duration, err error) {
			if err != nil {
				t.Errorf("%s: %v", pl.Name, err)
			}
			lat = l
		})
		// A second frame, sent call by call as Ship lays it out, so the
		// answers the device receives can be added up.
		down, answered := 0, 0
		seq := g.r.seq
		g.r.seq++
		for i := 0; i < g.r.chunks; i++ {
			req := make([]byte, max(share(pl.UploadBytes, g.r.chunks, i), frameHeader))
			binary.LittleEndian.PutUint32(req, seq)
			binary.LittleEndian.PutUint16(req[4:], uint16(i))
			g.r.cl.CallAsync(methodFrame, req, core.PrioHighest, time.Second, func(resp []byte, err error) {
				if err != nil {
					t.Errorf("%s: call %d: %v", pl.Name, i, err)
				}
				down += len(resp)
				answered++
			})
		}
		if err := g.sim.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		if answered != g.r.chunks {
			t.Errorf("%s: %d of %d calls answered", pl.Name, answered, g.r.chunks)
		}
		if lat == 0 || g.r.UpBytes != int64(pl.UploadBytes) || down != pl.ResultBytes {
			t.Errorf("%s: one frame shipped %d B up and %d B down (latency %v), want %d and %d",
				pl.Name, g.r.UpBytes, down, lat, pl.UploadBytes, pl.ResultBytes)
		}
		if want := (max(pl.UploadBytes, pl.ResultBytes) + chunkBytes - 1) / chunkBytes; g.r.chunks != want {
			t.Errorf("%s: %d calls a frame, want %d", pl.Name, g.r.chunks, want)
		}
	}
}

func TestClientValidation(t *testing.T) {
	g := newRig(t, StandardPipelines()[0], 10e6, 10e6, time.Millisecond, 1e10)
	if err := g.r.Run(0, 30, 33*time.Millisecond, time.Second); err == nil {
		t.Error("zero compute should fail")
	}
	if err := g.r.Run(1e8, 0, 33*time.Millisecond, time.Second); err == nil {
		t.Error("zero FPS should fail")
	}
	sim := simnet.New(1)
	cm, sm := simnet.NewDemux(), simnet.NewDemux()
	link := simnet.NewLink(sim, 10e6, time.Millisecond, sm)
	if _, err := NewRunner(sim, StandardPipelines()[1], 0, link, link, cm, sm); err == nil {
		t.Error("a surrogate without compute should fail")
	}
}

// TestPendingFramesOnLossyLink: offloaded frames whose datagrams a 50 %
// lossy uplink keeps eating fail their calls, and each is scored as a
// miss — no frame is left pending.
func TestPendingFramesOnLossyLink(t *testing.T) {
	pl := Pipeline{Name: "x", RemoteOps: 1e6, UploadBytes: 200, ResultBytes: 100, TriggerEvery: 1}
	g := newRig(t, pl, 10e6, 10e6, 5*time.Millisecond, 1e10, simnet.WithLoss(0.5))
	g.run(t, 1e9, 33*time.Millisecond, time.Second, 3*time.Second)
	if g.r.Failed == 0 {
		t.Error("expected some lost offloads on a 50% lossy link")
	}
	if got := g.r.DeadlineHits + g.r.DeadlineMiss; got != 31 || g.r.seq != 31 {
		t.Errorf("scored %d of %d offloaded frames, want all 31", got, g.r.seq)
	}
	if g.r.DeadlineMiss < g.r.Failed {
		t.Errorf("%d failed frames but only %d misses", g.r.Failed, g.r.DeadlineMiss)
	}
}

func TestPingerMeasuresRTT(t *testing.T) {
	g := newRig(t, Probe, 10e6, 10e6, 18*time.Millisecond, 0)
	g.r.Ping(50, 20*time.Millisecond)
	if err := g.sim.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if g.r.Latency.Count() != 50 || g.r.Failed != 0 {
		t.Fatalf("rtt count=%d failed=%d", g.r.Latency.Count(), g.r.Failed)
	}
	// RTT ~= 2*18ms + serialization.
	if mean := g.r.Latency.Mean(); mean < 36*time.Millisecond || mean > 40*time.Millisecond {
		t.Errorf("mean RTT = %v, want ~36ms", mean)
	}
}

func TestPingerCountsLosses(t *testing.T) {
	g := newRig(t, Probe, 10e6, 10e6, 5*time.Millisecond, 0, simnet.WithLoss(1.0))
	g.r.Ping(10, 10*time.Millisecond)
	if err := g.sim.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if g.r.Failed != 10 || g.r.Latency.Count() != 0 {
		t.Errorf("failed=%d rtt=%d, want 10 and 0", g.r.Failed, g.r.Latency.Count())
	}
}
