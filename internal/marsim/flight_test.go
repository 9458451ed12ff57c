package marsim

import (
	"bytes"
	"testing"

	"marnet/internal/obs"
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
	if res.StormSnapshot < 0 {
		for i, sn := range res.Snaps {
			t.Logf("snapshot %d reason=%s retx=%d moves=%d", i, sn.Reason,
				countKind(sn, obs.EvFrameRetransmit), countKind(sn, obs.EvAdaptMove))
		}
		t.Fatal("no snapshot shows retransmit storm -> ladder downgrade")
	}
	if res.SessionTriggers == 0 {
		t.Error("session SLO never fired during the burst")
	}
	if res.GlobalTriggers == 0 {
		t.Error("global SLO (chained parent) never fired")
	}
	storm := res.Snaps[res.StormSnapshot]
	if countKind(storm, obs.EvFrameRetransmit) == 0 || countKind(storm, obs.EvAdaptMove) == 0 {
		t.Errorf("storm snapshot lacks the chain: retx=%d moves=%d",
			countKind(storm, obs.EvFrameRetransmit), countKind(storm, obs.EvAdaptMove))
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
	if len(a.Snaps) == len(b.Snaps) {
		for i := range a.Snaps {
			if !bytes.Equal(a.Snaps[i].Encode(), b.Snaps[i].Encode()) {
				t.Errorf("snapshot %d not byte-identical", i)
			}
		}
	}
	c, err := RunFlightGEBurst(8)
	if err != nil {
		t.Fatalf("run c: %v", err)
	}
	if c.TraceHash == a.TraceHash {
		t.Error("different seeds produced identical traces")
	}
}

// countKind reports how many of a snapshot's events have the given kind.
func countKind(s *obs.Snapshot, kind obs.EventKind) int {
	n := 0
	for _, e := range s.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
