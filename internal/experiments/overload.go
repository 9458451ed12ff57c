package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marnet/internal/core"
	"marnet/internal/rpc"
)

// OverloadTierRow is one priority class's outcome under the storm.
type OverloadTierRow struct {
	Prio      core.Priority
	Offered   int64
	Succeeded int64
	P99       time.Duration // latency of successful calls
}

// OverloadResult is the server-side overload-protection study: an open-loop
// storm at a multiple of the serving capacity, plus a mid-load drain with
// failover.
type OverloadResult struct {
	CapacityRPS float64
	OfferedRPS  float64
	Budget      time.Duration
	Rows        []OverloadTierRow

	Served       int64
	Shed         int64
	QueueFull    int64
	CannotFinish int64
	Expired      int64

	// Drain phase.
	DrainCalls     int64
	DrainFailed    int64
	DrainCompleted bool  // primary finished everything it admitted
	Failovers      int64 // calls the backup absorbed mid-drain
}

// Overload stresses the offload serving path the way Section VI's edge
// deployment would see it: four ARTP priority classes offering, together,
// four times the server's sustainable rate, with a propagated per-call
// deadline. The admission gate must keep the protected class near 100%
// while shedding concentrates in the lowest tiers and admitted calls stay
// inside the budget; a second phase drains the primary mid-load and checks
// that failover loses nothing. Unlike the simulator studies this one runs
// on real sockets, so exact counts vary run to run — the shape is the
// result.
func Overload(seed int64) OverloadResult {
	const (
		workers = 4
		service = 5 * time.Millisecond
		budget  = 150 * time.Millisecond
	)
	handler := func(method uint8, req []byte) []byte {
		time.Sleep(service)
		return req
	}
	res := OverloadResult{
		CapacityRPS: float64(workers) * float64(time.Second) / float64(service),
		Budget:      budget,
	}

	srv, err := rpc.NewServer("127.0.0.1:0", nil, handler, rpc.WithWorkers(workers))
	if err != nil {
		panic(err)
	}

	type tier struct {
		prio    core.Priority
		perTick int
		cl      *rpc.Client

		succeeded int64
		mu        sync.Mutex
		lat       []time.Duration
	}
	tiers := []*tier{
		{prio: core.PrioHighest, perTick: 2},
		{prio: core.PrioNoDiscard, perTick: 4},
		{prio: core.PrioNoDelay, perTick: 5},
		{prio: core.PrioLowest, perTick: 5},
	}
	for i, tr := range tiers {
		cl, err := rpc.Dial(srv.Addr(), rpc.ClientConfig{Priority: tr.prio, Seed: seed + int64(i)})
		if err != nil {
			panic(err)
		}
		tr.cl = cl
	}

	const ticks = 200 // 1 s of storm at 5 ms per tick
	perSec := 0
	for _, tr := range tiers {
		perSec += tr.perTick * 200
	}
	res.OfferedRPS = float64(perSec)

	var offered [4]int64
	var wg sync.WaitGroup
	ticker := time.NewTicker(5 * time.Millisecond)
	for t := 0; t < ticks; t++ {
		<-ticker.C
		for i, tr := range tiers {
			for k := 0; k < tr.perTick; k++ {
				offered[i]++
				wg.Add(1)
				go func(tr *tier) {
					defer wg.Done()
					t0 := time.Now()
					if _, err := tr.cl.Call(1, nil, budget); err == nil {
						atomic.AddInt64(&tr.succeeded, 1)
						tr.mu.Lock()
						tr.lat = append(tr.lat, time.Since(t0))
						tr.mu.Unlock()
					}
				}(tr)
			}
		}
	}
	ticker.Stop()
	wg.Wait()

	for i, tr := range tiers {
		row := OverloadTierRow{Prio: tr.prio, Offered: offered[i], Succeeded: tr.succeeded}
		if len(tr.lat) > 0 {
			sort.Slice(tr.lat, func(a, b int) bool { return tr.lat[a] < tr.lat[b] })
			row.P99 = tr.lat[len(tr.lat)*99/100]
		}
		res.Rows = append(res.Rows, row)
		tr.cl.Close()
	}
	st := srv.Stats()
	res.Served = st.Served
	res.Shed = st.Shed
	res.QueueFull = st.QueueFull
	res.CannotFinish = st.CannotFinish
	res.Expired = st.ExpiredOnArrival + st.ExpiredInQueue
	srv.Close()

	// Phase 2: drain the primary under moderate load; the failover client
	// must land every call somewhere.
	primary, err := rpc.NewServer("127.0.0.1:0", nil, handler, rpc.WithWorkers(workers))
	if err != nil {
		panic(err)
	}
	defer primary.Close()
	backup, err := rpc.NewServer("127.0.0.1:0", nil, handler, rpc.WithWorkers(workers))
	if err != nil {
		panic(err)
	}
	defer backup.Close()
	fc, err := rpc.DialFailover([]string{primary.Addr(), backup.Addr()}, rpc.ClientConfig{Seed: seed}, rpc.BreakerPolicy{})
	if err != nil {
		panic(err)
	}
	defer fc.Close()

	const drainTicks = 150
	ticker = time.NewTicker(5 * time.Millisecond)
	for t := 0; t < drainTicks; t++ {
		<-ticker.C
		if t == drainTicks/3 {
			primary.SetDraining(true)
		}
		res.DrainCalls++
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := fc.Call(1, nil, time.Second); err != nil {
				atomic.AddInt64(&res.DrainFailed, 1)
			}
		}()
	}
	ticker.Stop()
	wg.Wait()
	res.DrainCompleted = primary.WaitDrain(3 * time.Second)
	if gst := primary.Gate().Stats(); gst.Completed != gst.Admitted {
		res.DrainCompleted = false
	}
	res.Failovers = fc.Stats().Failovers
	return res
}

// Format renders the overload study.
func (r OverloadResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload — admission control at %.1fx capacity (%.0f rps offered, %.0f rps sustainable, %v budget)\n",
		r.OfferedRPS/r.CapacityRPS, r.OfferedRPS, r.CapacityRPS, r.Budget)
	fmt.Fprintf(&b, "%-12s %9s %9s %10s %8s\n", "priority", "offered", "admitted", "admit %", "p99")
	for _, row := range r.Rows {
		p99 := "-"
		if row.P99 > 0 {
			p99 = row.P99.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-12s %9d %9d %9.1f%% %8s\n",
			row.Prio, row.Offered, row.Succeeded,
			100*float64(row.Succeeded)/float64(row.Offered), p99)
	}
	fmt.Fprintf(&b, "server: served=%d shed=%d queue-full=%d cannot-finish=%d expired=%d\n",
		r.Served, r.Shed, r.QueueFull, r.CannotFinish, r.Expired)
	drained := "completed all admitted work"
	if !r.DrainCompleted {
		drained = "LOST ADMITTED WORK"
	}
	fmt.Fprintf(&b, "drain: %d calls across a mid-load drain, %d failed; primary %s; %d calls failed over to the backup\n",
		r.DrainCalls, r.DrainFailed, drained, r.Failovers)
	return b.String()
}
