package marsim

import (
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/phy"
	"marnet/internal/rpc"
)

// The GE burst must arm the whole diagnosis chain: the recorder sees the
// datapath, budget blows freeze snapshots, the SLO engine detects the
// erosion, and at least one capture shows the causal story — retransmit
// storm, then the ladder walking down.
func TestFlightGEBurstCapturesStorm(t *testing.T) {
	res, err := RunFlightGEBurst(42)
	if err != nil {
		t.Fatalf("RunFlightGEBurst: %v", err)
	}
	t.Logf("%s", res)
	if res.Frames == 0 || res.Events == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if res.Snapshots == 0 {
		t.Fatal("no snapshots frozen during a 10 s loss burst")
	}
	// stormIndex picks the first capture holding a retransmit and, after
	// it, a ladder downgrade.
	if res.StormSnapshot < 0 {
		t.Fatalf("no snapshot (reasons %v) shows retransmit storm -> ladder downgrade", res.Reasons)
	}
	if res.SessionTriggers == 0 {
		t.Error("session SLO never fired during the burst")
	}
	if res.GlobalTriggers == 0 {
		t.Error("global SLO (chained parent) never fired")
	}
}

// Same seed, same capture — byte for byte. Different seed, a different
// run.
func TestFlightGEBurstDeterministic(t *testing.T) {
	a, err := RunFlightGEBurst(7)
	if err != nil {
		t.Fatalf("run a: %v", err)
	}
	b, err := RunFlightGEBurst(7)
	if err != nil {
		t.Fatalf("run b: %v", err)
	}
	if a.SnapshotHash != b.SnapshotHash {
		t.Errorf("snapshot hashes differ: %016x vs %016x", a.SnapshotHash, b.SnapshotHash)
	}
	if a.TraceHash != b.TraceHash {
		t.Errorf("trace hashes differ: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if a.Events != b.Events || a.Snapshots != b.Snapshots {
		t.Errorf("run shapes differ: %+v vs %+v", a, b)
	}
	c, err := RunFlightGEBurst(8)
	if err != nil {
		t.Fatalf("run c: %v", err)
	}
	if c.TraceHash == a.TraceHash {
		t.Error("different seeds produced identical traces")
	}
}

// TestSessionResetSnapshot: the first re-bind of an outage freezes the
// client's flight recorder, once however often the silent conn re-binds,
// and the capture holds the reset record itself.
func TestSessionResetSnapshot(t *testing.T) {
	s := NewScenario("session-reset", 42)
	srv, serverEp, err := simServer(s, 4*time.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	host := s.Net.NewHost("mobile", phy.WiFiLocal)
	rec := obs.NewFlightRecorder(obs.RecorderConfig{Session: "mobile", Clock: s.Clock})
	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Clock:     s.Clock,
		Dialer:    host.Dialer(serverEp),
		Seed:      43,
		Keepalive: 100 * time.Millisecond,
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := startWorkload(s, cl, core.PrioHighest, 400, 50*time.Millisecond, 250*time.Millisecond)
	s.At(time.Second, func() { host.Partition(true) })
	s.At(2500*time.Millisecond, func() { host.Partition(false) })
	var reconnects int64
	s.Defer(func() { srv.Close() })
	s.Defer(func() {
		reconnects = cl.Stats().Reconnects
		w.stop()
		cl.Close()
	})
	if err := s.Run(3500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var resets []*obs.Snapshot
	for _, sn := range rec.Snapshots() {
		if sn.Reason == "session-reset" {
			resets = append(resets, sn)
		}
	}
	if len(resets) != 1 || reconnects < 2 {
		t.Fatalf("%d session-reset snapshots over %d re-binds, want 1 over several", len(resets), reconnects)
	}
	for _, e := range resets[0].Events {
		if e.Kind == obs.EvSessionReset {
			return
		}
	}
	t.Errorf("the session-reset snapshot holds no %v record", obs.EvSessionReset)
}
