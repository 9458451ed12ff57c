package marsim

import "testing"

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
