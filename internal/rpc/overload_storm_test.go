package rpc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The storm suite is the acceptance test for server-side overload
// protection: a draining server must complete everything it accepted
// while clients fail over without losing a single accepted request. The
// 4x over-capacity priority-shedding storm moved to storm_sim_test.go,
// where it runs on the virtual clock with the TIGHT latency bound (no
// scheduling slack) and deterministic tier outcomes.

const methodStorm = 9

// stormService is the per-request handler cost; with stormWorkers workers
// the server's capacity is stormWorkers/stormService requests per second.
const (
	stormService = 5 * time.Millisecond
	stormWorkers = 4
	stormBudget  = 150 * time.Millisecond
)

func stormHandler(method uint8, req []byte) []byte {
	if method == methodStorm {
		time.Sleep(stormService)
		return []byte("ok")
	}
	return nil
}

func TestOverloadDrainFailoverLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("storm suite skipped in -short mode")
	}
	primary, err := NewServer("127.0.0.1:0", nil, stormHandler, WithWorkers(stormWorkers))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	backup, err := NewServer("127.0.0.1:0", nil, stormHandler, WithWorkers(stormWorkers))
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()

	fc, err := DialFailover([]string{primary.Addr(), backup.Addr()}, ClientConfig{Seed: 7}, BreakerPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// Open-loop load well under either server's capacity, so every call
	// should succeed somewhere; mid-run the primary starts draining.
	const ticks = 200 // 1 s at 5 ms per tick
	var failed, succeeded int64
	var wg sync.WaitGroup
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for tick := 0; tick < ticks; tick++ {
		<-ticker.C
		if tick == 60 {
			primary.SetDraining(true)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := fc.Call(methodStorm, nil, time.Second); err != nil {
				atomic.AddInt64(&failed, 1)
			} else {
				atomic.AddInt64(&succeeded, 1)
			}
		}()
	}
	wg.Wait()

	// Zero lost accepted requests: every call succeeded (on the primary
	// before the drain, on the backup after).
	if failed != 0 {
		t.Errorf("%d calls failed across the drain (%d succeeded)", failed, succeeded)
	}
	// The drain completes: everything the primary admitted, it served.
	if !primary.WaitDrain(3 * time.Second) {
		t.Fatal("primary never finished draining")
	}
	gst := primary.Gate().Stats()
	if gst.Completed != gst.Admitted {
		t.Errorf("primary lost admitted work: admitted=%d completed=%d", gst.Admitted, gst.Completed)
	}
	if primary.Served() == 0 {
		t.Error("primary served nothing before the drain")
	}
	if backup.Served() == 0 {
		t.Error("backup served nothing after the drain")
	}
	if st := fc.Stats(); st.Failovers == 0 {
		t.Error("no failovers recorded across the drain")
	}
	// The steering hint kicked in: after discovery, the draining primary
	// stopped seeing new calls, so its rejection count stays far below
	// the number of post-drain calls the backup absorbed.
	if rejected := primary.Stats().Draining; rejected > 20 {
		t.Errorf("primary rejected %d calls while draining; steering should have capped discovery traffic", rejected)
	}
}
