package marsim

import (
	"runtime"
	"testing"
	"time"
)

// runMPScenario mirrors runScenario for the multipath runners: zero
// goroutines may survive a run (the paths' probes and FEC flushes are
// deadlines of each conn's one alarm on the virtual clock, like everything
// else).
func runMPScenario(t *testing.T, name string, run func(int64) (*MultipathResult, error), seed int64) *MultipathResult {
	t.Helper()
	before := runtime.NumGoroutine()
	res, err := run(seed)
	if err != nil {
		t.Fatalf("%s(seed=%d): %v", name, seed, err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%s leaked goroutines: %d -> %d (simulation must spawn none)", name, before, after)
	}
	return res
}

func wifiEventCount(res *MultipathResult, state string) int {
	n := 0
	for _, ev := range res.PathEvents {
		if ev.Path == "wifi" && ev.State == state {
			n++
		}
	}
	return n
}

// TestMultipathBlackholeAcceptance is the tentpole pin: a mid-stream
// blackhole of the primary access link must cost the full multipath
// stack zero session resets, an interactive cutover within one keepalive
// interval, and the Gilbert-Elliott burst window must be absorbed by
// cross-path FEC (>= 90% of observed holes repaired from the other
// link's parity) rather than end-to-end retransmission.
func TestMultipathBlackholeAcceptance(t *testing.T) {
	res := runMPScenario(t, "multipath-full",
		func(seed int64) (*MultipathResult, error) { return RunMultipath(seed, MPFull) }, 42)

	if res.Reconnects != 0 {
		t.Errorf("blackhole forced %d session resets, want 0", res.Reconnects)
	}
	if res.CutoverGap <= 0 {
		t.Fatalf("wifi was never declared down after the partition: %+v", res.PathEvents)
	}
	if res.CutoverGap > mpKeepalive {
		t.Errorf("cutover took %v, want <= one keepalive interval (%v)", res.CutoverGap, mpKeepalive)
	}
	if res.FailoverFrames < 1 {
		t.Error("no in-flight frame was evacuated onto the survivor path")
	}
	if res.ParitySent == 0 {
		t.Error("cross-path FEC shipped no parity")
	}
	repairs := res.RepairedUp + res.RepairedDown
	if repairs < 5 {
		t.Errorf("only %d frames repaired from parity — the burst window is vacuous", repairs)
	}
	if res.RepairRate < 0.9 {
		t.Errorf("FEC repair rate %.3f, want >= 0.9 (repaired %d, unrepaired %d)",
			res.RepairRate, repairs, res.UnrepairedUp+res.UnrepairedDown)
	}
	if res.MaxOKGap > 600*time.Millisecond {
		t.Errorf("user-visible outage was %v, want <= 600ms", res.MaxOKGap)
	}
	// The dead link revives once the partition heals: probing -> up.
	revived := false
	for _, ev := range res.PathEvents {
		if ev.Path == "wifi" && ev.State == "up" && ev.At > mpHealAt {
			revived = true
		}
	}
	if !revived {
		t.Errorf("wifi never revived after the heal: %+v", res.PathEvents)
	}
	if res.OKRate() < 0.95 {
		t.Errorf("ok rate %.3f across burst+blackhole, want >= 0.95", res.OKRate())
	}
}

// TestMultipathFailoverVsSingle is the head-to-head: probing+evacuation
// alone already turns a ~1 s single-path outage (with a forced session
// reset) into a sub-250 ms blip with none.
func TestMultipathFailoverVsSingle(t *testing.T) {
	failover := runMPScenario(t, "multipath-failover",
		func(seed int64) (*MultipathResult, error) { return RunMultipath(seed, MPFailover) }, 42)
	single := runMPScenario(t, "multipath-single",
		func(seed int64) (*MultipathResult, error) { return RunMultipath(seed, MPSingle) }, 42)

	if failover.Reconnects != 0 {
		t.Errorf("failover mode reset the session %d times", failover.Reconnects)
	}
	if failover.CutoverGap <= 0 || failover.CutoverGap > mpKeepalive {
		t.Errorf("failover cutover %v, want within (0, %v]", failover.CutoverGap, mpKeepalive)
	}
	if single.Reconnects < 1 {
		t.Errorf("single-path survived the blackhole without a reset (%+v) — the baseline is vacuous", single)
	}
	if single.MaxOKGap < 800*time.Millisecond {
		t.Errorf("single-path outage only %v — the blackhole did not bite", single.MaxOKGap)
	}
	if failover.MaxOKGap >= single.MaxOKGap {
		t.Errorf("failover outage %v not better than single-path %v", failover.MaxOKGap, single.MaxOKGap)
	}
	if failover.OKs <= single.OKs {
		t.Errorf("failover completed %d calls vs single-path %d, want strictly more", failover.OKs, single.OKs)
	}
}

// TestMultipathFlapScenario pins the repeated-flap behavior: three
// 300 ms blackhole pulses each produce a down/revive cycle, frames are
// evacuated every time, and the session never resets.
func TestMultipathFlapScenario(t *testing.T) {
	for _, mode := range []MultipathMode{MPFailover, MPFull} {
		res := runMPScenario(t, "multipath-flap-"+mode.String(),
			func(seed int64) (*MultipathResult, error) { return RunMultipathFlap(seed, mode) }, 42)
		if res.Reconnects != 0 {
			t.Errorf("%s: flaps reset the session %d times", mode, res.Reconnects)
		}
		if downs := wifiEventCount(res, "down"); downs != 3 {
			t.Errorf("%s: %d wifi-down events across 3 pulses, want 3", mode, downs)
		}
		if ups := wifiEventCount(res, "up"); ups != 3 {
			t.Errorf("%s: %d wifi revivals across 3 pulses, want 3", mode, ups)
		}
		if res.FailoverFrames < 3 {
			t.Errorf("%s: only %d frames evacuated across 3 flaps", mode, res.FailoverFrames)
		}
		if res.MaxOKGap > 300*time.Millisecond {
			t.Errorf("%s: flap outage %v, want <= 300ms", mode, res.MaxOKGap)
		}
		if res.Fails != 0 {
			t.Errorf("%s: %d calls failed across the flaps, want 0", mode, res.Fails)
		}
	}
}

// TestMultipathDeterminismMatrix extends the determinism regression to
// the path-flap and blackhole scenarios: same seed, byte-identical
// trace; different seeds, different traces. Packet conservation and the
// zero-goroutine invariant are enforced inside every run.
func TestMultipathDeterminismMatrix(t *testing.T) {
	seeds := []int64{1, 7, 1234}
	scenarios := []struct {
		name string
		run  func(int64) (*MultipathResult, error)
	}{
		{"blackhole-single", func(seed int64) (*MultipathResult, error) { return RunMultipath(seed, MPSingle) }},
		{"blackhole-failover", func(seed int64) (*MultipathResult, error) { return RunMultipath(seed, MPFailover) }},
		{"blackhole-full", func(seed int64) (*MultipathResult, error) { return RunMultipath(seed, MPFull) }},
		{"flap-full", func(seed int64) (*MultipathResult, error) { return RunMultipathFlap(seed, MPFull) }},
	}
	for _, sc := range scenarios {
		var hashes []uint64
		for _, seed := range seeds {
			a := runMPScenario(t, sc.name, sc.run, seed)
			b := runMPScenario(t, sc.name, sc.run, seed)
			if a.TraceHash != b.TraceHash {
				t.Errorf("%s seed=%d: traces differ (hash %x vs %x)", sc.name, seed, a.TraceHash, b.TraceHash)
			}
			hashes = append(hashes, a.TraceHash)
		}
		if hashes[0] == hashes[1] && hashes[1] == hashes[2] {
			t.Errorf("%s: all seeds produced the identical trace — seeding is inert", sc.name)
		}
	}
}
