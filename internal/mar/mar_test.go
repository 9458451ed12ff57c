package mar

import (
	"math"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/simnet"
	"marnet/internal/wire"
)

func TestBandwidthArithmeticMatchesPaper(t *testing.T) {
	lo, hi := RetinaRate()
	if lo != 6e6 || hi != 10e6 {
		t.Errorf("retina rate = %v-%v", lo, hi)
	}
	// 60-70 degree FoV lands in the paper's 9-12 Gb/s window (the paper
	// calls it "a rough estimate").
	lo60, _ := FoVScaledRate(60)
	_, hi70 := FoVScaledRate(70)
	if lo60 < 4e9 || lo60 > 9e9 {
		t.Errorf("FoV 60 low bound %v outside rough-gigabit window", lo60)
	}
	if hi70 < 9e9 || hi70 > 14e9 {
		t.Errorf("FoV 70 high bound %v outside rough-gigabit window", hi70)
	}
	// 4K60 at 12 bpp.
	raw := RawVideoBitrate(3840, 2160, 60, 12)
	if math.Abs(raw-5.97e9) > 0.05e9 {
		t.Errorf("raw 4K bitrate = %v, want ~5.97e9", raw)
	}
	// In MiB/s this is the paper's 711 figure.
	if got := RawVideoMiBps(raw); math.Abs(got-711) > 2 {
		t.Errorf("raw 4K = %.1f MiB/s, want ~711", got)
	}
	// Lossy compression brings it to the 20-30 Mb/s band at ~200-300:1.
	if got := CompressedBitrate(raw, 250); got < 20e6 || got > 30e6 {
		t.Errorf("compressed = %v, want 20-30 Mb/s", got)
	}
	if CompressedBitrate(100, 0) != 100 {
		t.Error("ratio<=0 should pass through")
	}
}

func TestRecoveryBudgetSectionVIC(t *testing.T) {
	// Paper: 75 ms budget => recovery affordable only if RTT <= 37.5 ms.
	if got := RecoveryBudget(75 * time.Millisecond); got != 37500*time.Microsecond {
		t.Errorf("budget = %v, want 37.5ms", got)
	}
	if !CanRecoverLoss(37*time.Millisecond, 75*time.Millisecond) {
		t.Error("37 ms RTT should be recoverable")
	}
	if CanRecoverLoss(38*time.Millisecond, 75*time.Millisecond) {
		t.Error("38 ms RTT should not be recoverable")
	}
	// 4G (~80 ms) and public WiFi (~150 ms) average RTTs: recovery is not
	// possible without large service degradation (Section VI-C).
	if CanRecoverLoss(80*time.Millisecond, 75*time.Millisecond) ||
		CanRecoverLoss(150*time.Millisecond, 75*time.Millisecond) {
		t.Error("4G/WiFi RTTs must be unrecoverable at 75 ms budget")
	}
}

func TestPLocalScalesWithCompute(t *testing.T) {
	app := App{FPS: 30, OpsPerFrame: 3e6}
	slow := PLocal(app, 1e8)  // smartphone
	fast := PLocal(app, 2e10) // cloud
	if slow != 30*time.Millisecond {
		t.Errorf("PLocal smartphone = %v, want 30ms", slow)
	}
	if fast >= slow {
		t.Error("faster hardware should cut delay")
	}
	if !InTime(slow, app) {
		t.Error("30 ms < 33.3 ms deadline should be in time")
	}
	if InTime(40*time.Millisecond, app) {
		t.Error("40 ms misses a 30 FPS deadline")
	}
	if PLocal(app, 0) < time.Hour {
		t.Error("zero compute should be effectively infinite")
	}
}

func TestPLocalExternalDB(t *testing.T) {
	app := App{FPS: 30, OpsPerFrame: 1e6, DBRate: 15, ObjBytes: 50_000}
	link := Link{UpBps: 5e6, DownBps: 20e6, OneWay: 25 * time.Millisecond}
	base := PLocal(app, 1e8)

	allCached, err := PLocalExternalDB(app, 1e8, link, 1)
	if err != nil {
		t.Fatal(err)
	}
	if allCached != base {
		t.Errorf("x=1 should equal PLocal: %v vs %v", allCached, base)
	}
	noCache, err := PLocalExternalDB(app, 1e8, link, 0)
	if err != nil {
		t.Fatal(err)
	}
	halfCache, err := PLocalExternalDB(app, 1e8, link, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !(base < halfCache && halfCache < noCache) {
		t.Errorf("caching monotonicity violated: %v %v %v", base, halfCache, noCache)
	}
	if _, err := PLocalExternalDB(app, 1e8, link, 1.5); err == nil {
		t.Error("x>1 should error")
	}
}

func TestPOffloadDataColocation(t *testing.T) {
	app := App{FPS: 30, OpsPerFrame: 3e6, DBRate: 15, ObjBytes: 50_000}
	p := OffloadParams{
		Rm: 1e8, Rc: 2e10,
		Link: Link{UpBps: 8e6, DownBps: 20e6, OneWay: 15 * time.Millisecond},
		X:    0, Y: 1,
		UploadBytes: 15_000, ResultBytes: 500,
		DBLink: Link{DownBps: 1e9, OneWay: 10 * time.Millisecond},
	}
	colocated, err := POffload(app, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Y = 0
	split, err := POffload(app, p)
	if err != nil {
		t.Fatal(err)
	}
	if split <= colocated {
		t.Errorf("separate data server should increase delay: %v vs %v", split, colocated)
	}
	if _, err := POffload(app, OffloadParams{Rm: 1, Rc: 1, X: -0.1}); err == nil {
		t.Error("bad split should error")
	}
}

func TestBestStrategyFollowsHardware(t *testing.T) {
	// Heavy vision app: smartphone cannot make the deadline locally, cloud
	// offload can.
	app := App{FPS: 30, OpsPerFrame: 2e7}
	off := OffloadParams{
		Rm: 1e8, Rc: 2e10,
		Link:        Link{UpBps: 20e6, DownBps: 50e6, OneWay: 10 * time.Millisecond},
		UploadBytes: 12_000, ResultBytes: 400,
		Y: 1,
	}
	name, delay, err := BestStrategy(app, 1e8, off, 1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "offload" {
		t.Errorf("smartphone best = %s (%v), want offload", name, delay)
	}
	if !InTime(delay, app) {
		t.Errorf("offloaded delay %v misses deadline", delay)
	}
	// Same app on a desktop: local wins (no network round trip).
	name, _, err = BestStrategy(app, 1e9, off, 1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "local" {
		t.Errorf("desktop best = %s, want local", name)
	}
}

// dial opens a session declaring specs over a 10 Mb/s, 10 ms duplex link.
func dial(sim *simnet.Sim, specs ...wire.StreamSpec) *marsim.LinkSession {
	clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
	up := simnet.NewLink(sim, 10e6, 10*time.Millisecond, serverMux)
	down := simnet.NewLink(sim, 10e6, 10*time.Millisecond, clientMux)
	return marsim.DialLinks(sim, 1, up, down, clientMux, serverMux, wire.Config{StartBudget: 8e6, Streams: specs})
}

func TestVideoSourceGOPStructure(t *testing.T) {
	sim := simnet.New(77)
	v, err := NewVideoSource(sim, 1, VideoConfig{
		FPS: 30, GOP: 10, Bitrate: 2e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	refB, interB := v.FrameSizes()
	// GOP invariant: ref + (GOP-1) * inter == GOP * bitrate/8/fps.
	bitrate := 2e6
	perGOP := int(bitrate * 10 / (8 * 30))
	if got := refB + 9*interB; got < perGOP-20 || got > perGOP+20 {
		t.Errorf("GOP bytes = %d, want ~%d", got, perGOP)
	}
	if refB <= interB {
		t.Error("reference frames should be larger than interframes")
	}
	s := dial(sim, v.Ref, v.Inter)
	v.Start(s.Client, 2*time.Second)
	if err := sim.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if v.frame < 60 {
		t.Errorf("generated %d frames, want ~61", v.frame)
	}
	refDeliv := s.Tally.Stream(v.Ref.ID).Delivered
	interDeliv := s.Tally.Stream(v.Inter.ID).Delivered
	if refDeliv == 0 || interDeliv == 0 {
		t.Errorf("deliveries ref=%d inter=%d", refDeliv, interDeliv)
	}
}

func TestVideoSourceValidation(t *testing.T) {
	sim := simnet.New(77)
	if _, err := NewVideoSource(sim, 1, VideoConfig{FPS: 0, GOP: 5, Bitrate: 1e6}); err == nil {
		t.Error("FPS=0 should fail")
	}
	if _, err := NewVideoSource(sim, 1, VideoConfig{FPS: 30, GOP: 0, Bitrate: 1e6}); err == nil {
		t.Error("GOP=0 should fail")
	}
}

func TestSensorSourceAdaptsRate(t *testing.T) {
	sim := simnet.New(77)
	s, err := NewSensorSource(sim, 1, SensorConfig{SampleBytes: 100, SamplesPerS: 100})
	if err != nil {
		t.Fatal(err)
	}
	ls := dial(sim, s.Spec)
	s.Start(ls.Client, 2*time.Second)
	if err := sim.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The link is lossless and far from full: every sample sent arrives.
	if got := ls.Tally.Stream(s.Spec.ID).Delivered; got < 150 {
		t.Errorf("delivered %d samples at full rate, want ~200", got)
	}

	// Manually squeeze the allocation: the sampler must decimate.
	sim2 := simnet.New(77)
	s2, _ := NewSensorSource(sim2, 1, SensorConfig{SampleBytes: 100, SamplesPerS: 100})
	ls2 := dial(sim2, s2.Spec)
	s2.rateScale = 0.25
	s2.Start(ls2.Client, 2*time.Second)
	if err := sim2.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ls2.Tally.Stream(s2.Spec.ID).Delivered; got == 0 || got > 70 {
		t.Errorf("decimation failed: %d of ~200 samples delivered at scale 0.25", got)
	}
}

func TestSensorSourceValidation(t *testing.T) {
	if _, err := NewSensorSource(simnet.New(77), 1, SensorConfig{SampleBytes: 0, SamplesPerS: 10}); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestMetadataSourceConstantCritical(t *testing.T) {
	sim := simnet.New(77)
	m, err := NewMetadataSource(sim, 1, MetadataConfig{Bytes: 120, Interval: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.Class != core.ClassCritical || m.Spec.Priority != core.PrioHighest {
		t.Error("metadata must be critical/highest")
	}
	s := dial(sim, m.Spec)
	m.Start(s.Client, 2*time.Second)
	if err := sim.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.Tally.Stream(m.Spec.ID).Delivered; got != m.Generated {
		t.Errorf("delivered %d of %d metadata packets", got, m.Generated)
	}
	if _, err := NewMetadataSource(sim, 2, MetadataConfig{}); err == nil {
		t.Error("invalid config should fail")
	}
}
