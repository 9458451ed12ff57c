// Overload-shedding example: the serving side of the paper's offloading
// loop protecting itself. A recognition server with a small worker pool is
// offered four ARTP priority classes at well over its sustainable rate,
// with every call carrying a propagated deadline. The admission gate keeps
// the protected class flowing, the CoDel-style controller sheds the
// expendable tiers with immediate typed rejections, the degradation ladder
// downgrades responses (full render -> features-only -> cached pose) as
// queue delay builds, and a mid-run drain hands the load to a backup
// without losing a single accepted request.
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/overload"
	"marnet/internal/rpc"
)

const methodRecognize = 1

// scrape pulls /metrics once and echoes the shed/served counters — the
// same lines a Prometheus scraper (or curl) would see mid-storm.
func scrape(addr string) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		log.Printf("scrape: %v", err)
		return
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		log.Printf("scrape: %v", err)
		return
	}
	fmt.Println("  scraped /metrics (excerpt):")
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "mar_gate_admitted_total") ||
			strings.HasPrefix(line, "mar_gate_ladder_rejected_total") ||
			strings.HasPrefix(line, "mar_rpc_server_served_total") ||
			strings.HasPrefix(line, "mar_rpc_server_shed_total") {
			fmt.Println("    " + line)
		}
	}
	fmt.Println()
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The handler costs 5 ms; four workers make the server good for
	// 800 req/s. The tiered handler is the degradation ladder's far end:
	// cheaper work for lower response tiers.
	tiered := func(method uint8, req []byte, tier overload.Tier) []byte {
		switch tier {
		case overload.TierFeatures:
			time.Sleep(2 * time.Millisecond)
			return []byte("features")
		case overload.TierCached:
			return []byte("cached-pose")
		default:
			time.Sleep(5 * time.Millisecond)
			return []byte("full-render")
		}
	}
	cfg := overload.Config{Ladder: overload.DefaultLadder(100 * time.Millisecond)}
	newServer := func() (*rpc.Server, error) {
		return rpc.NewServer("127.0.0.1:0", nil, nil,
			rpc.WithWorkers(4), rpc.WithOverload(cfg),
			rpc.WithTierHandler(tiered))
	}
	srv, err := newServer()
	if err != nil {
		return err
	}
	fmt.Printf("recognition server on %s: 4 workers, 5 ms/request, ladder at %v/%v/%v\n",
		srv.Addr(), cfg.Ladder.DegradeAt, cfg.Ladder.CacheAt, cfg.Ladder.RejectAt)

	// Observability sidecar: every server and gate counter is scrapeable in
	// Prometheus text format for the lifetime of the run. Try, mid-storm:
	//
	//	curl -s http://<addr>/metrics | grep mar_gate
	//	curl -s http://<addr>/healthz
	reg := obs.NewRegistry()
	srv.PublishMetrics(reg)
	mux := obs.NewMux(func() (string, bool) {
		h := srv.Health()
		return h.String(), h == overload.ProbeHealthy
	}, reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go http.Serve(ln, mux) //nolint:errcheck // dies with the process
	fmt.Printf("metrics on http://%s/metrics (health on /healthz)\n\n", ln.Addr())

	// Four clients, one per ARTP priority, together offering ~4x capacity.
	type class struct {
		prio    core.Priority
		perTick int
		ok      int64
		offered int64
	}
	classes := []*class{
		{prio: core.PrioHighest, perTick: 2},
		{prio: core.PrioNoDiscard, perTick: 4},
		{prio: core.PrioNoDelay, perTick: 5},
		{prio: core.PrioLowest, perTick: 5},
	}
	clients := make([]*rpc.Client, len(classes))
	for i, c := range classes {
		cl, err := rpc.Dial(srv.Addr(), rpc.ClientConfig{Priority: c.prio, Seed: int64(i + 1)})
		if err != nil {
			return err
		}
		defer cl.Close()
		clients[i] = cl
	}

	fmt.Println("phase 1: 1.5 s open-loop storm at ~3200 req/s against 800 req/s capacity")
	var wg sync.WaitGroup
	ticker := time.NewTicker(5 * time.Millisecond)
	for tick := 0; tick < 300; tick++ {
		<-ticker.C
		for i, c := range classes {
			for k := 0; k < c.perTick; k++ {
				atomic.AddInt64(&c.offered, 1)
				wg.Add(1)
				go func(cl *rpc.Client, c *class) {
					defer wg.Done()
					if _, err := cl.Call(methodRecognize, nil, 150*time.Millisecond); err == nil {
						atomic.AddInt64(&c.ok, 1)
					}
				}(clients[i], c)
			}
		}
	}
	ticker.Stop()
	wg.Wait()

	for _, c := range classes {
		fmt.Printf("  %-12s %4d/%4d admitted (%.0f%%)\n",
			c.prio, c.ok, c.offered, 100*float64(c.ok)/float64(c.offered))
	}
	st := srv.Stats()
	fmt.Printf("  server: served=%d degraded=%d shed=%d queue-full=%d cannot-finish=%d expired=%d (health: %v)\n",
		st.Served, st.Degraded, st.Shed, st.QueueFull, st.CannotFinish,
		st.ExpiredOnArrival+st.ExpiredInQueue, srv.Health())
	scrape(ln.Addr().String())

	// Phase 2: drain mid-load, fail over to a backup, lose nothing.
	backup, err := newServer()
	if err != nil {
		return err
	}
	defer backup.Close()
	fc, err := rpc.DialFailover([]string{srv.Addr(), backup.Addr()}, rpc.ClientConfig{Seed: 7}, rpc.BreakerPolicy{})
	if err != nil {
		return err
	}
	defer fc.Close()

	fmt.Printf("phase 2: moderate load, primary drains mid-run, backup %s takes over\n", backup.Addr())
	before := srv.Gate().Stats()
	var failed int64
	ticker = time.NewTicker(5 * time.Millisecond)
	for tick := 0; tick < 200; tick++ {
		<-ticker.C
		if tick == 60 {
			fmt.Println("  [script] primary begins draining...")
			srv.SetDraining(true)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := fc.Call(methodRecognize, nil, time.Second); err != nil {
				atomic.AddInt64(&failed, 1)
			}
		}()
	}
	ticker.Stop()
	wg.Wait()
	drained := srv.WaitDrain(3 * time.Second)
	gst := srv.Gate().Stats()
	srv.Close()

	fmt.Printf("  drain complete=%v: primary took %d calls this phase, then refused %d while draining;\n",
		drained, gst.Admitted-before.Admitted, gst.RejectedDraining-before.RejectedDraining)
	fmt.Printf("  %d/200 calls failed end to end; %d failovers absorbed by the backup\n",
		failed, fc.Stats().Failovers)
	return nil
}
