package main

import (
	"time"

	"marnet/internal/core"
	"marnet/internal/phy"
)

// workloadSpec describes one workload. The names are fixed: later issues
// state their claims as one end-to-end metric on one of them.
type workloadSpec struct {
	name string
	why  string

	mix []sizeWeight // request sizes and their weights

	// Real-socket closed loops: calls kept in flight per session;
	// blocking uses one goroutine per session around the blocking Call.
	outstanding int
	blocking    bool

	sim *simSpec // set when the workload runs on marsim virtual time
}

// simSpec is the scenario of a workload that runs on the simulator: a
// number of hosts, each issuing one call per period on virtual time, to
// one server whose service time is modelled.
type simSpec struct {
	hosts   int
	link    phy.Profile // the hosts' radio
	server  phy.Profile // the server's attachment
	period  time.Duration
	prios   []core.Priority // each host rotates through them
	retry   int             // rpc RetryPolicy.Max
	service time.Duration   // modelled handler time
	workers int
	// mobility scripts a handover to LTE-Direct and back and one 2 s
	// partition per host, staggered over the window.
	mobility bool
	// virtualPerSecond is how many virtual seconds one requested wall
	// second buys: what the simulator delivers on the reference host when
	// the neighbours are busy, so that a run takes about as long as asked.
	virtualPerSecond float64
	// miniature is the virtual length of the copy of the scenario that
	// set-up runs twice to prove the seed fixes the trace.
	miniature time.Duration
}

// lossyLink is the lossy workload's path: 2 % random loss and
// 5 ms + U[0, 1.25) ms delay each way, fast enough that a 1000 B request
// never queues behind the one before it.
var lossyLink = phy.Profile{Name: "lossy", Down: 200e6, Up: 200e6,
	OneWay: 5 * time.Millisecond, Jitter: 1250 * time.Microsecond, Loss: 0.02}

// edgeLink attaches the lossy workload's server right behind the access
// link, so that the path is lossyLink and nothing else.
var edgeLink = phy.Profile{Name: "edge", Down: 1e9, Up: 1e9}

var allPrios = []core.Priority{core.PrioHighest, core.PrioNoDiscard, core.PrioNoDelay, core.PrioLowest}

var workloads = []*workloadSpec{
	{
		name:        "lockstep",
		why:         "One frame in flight per session, as a MAR client offloads: every call pays the whole un-amortised stack, so this is the latency floor; batching is bypassed.",
		mix:         []sizeWeight{{600, 1}},
		outstanding: 1, blocking: true,
	},
	{
		name:        "pipelined",
		why:         "Eight calls in flight per session saturate the CPU, so per-packet cost sets calls/s; batching, pacer coalescing, pools and GC do the work lockstep bypasses.",
		mix:         []sizeWeight{{64, 2}, {600, 5}, {1100, 3}},
		outstanding: 8,
	},
	{
		name: "lossy",
		why:  "2 % loss and 5 ms delay each way at 240 calls/s, on virtual time: NACK, sweep and rpc retry do the work; the tail is the recovery time the paper bounds at 37.5 ms.",
		mix:  []sizeWeight{{1000, 1}},
		sim: &simSpec{hosts: 2, link: lossyLink, server: edgeLink, period: time.Second / 120, prios: allPrios[:1], retry: 2,
			service: time.Millisecond, workers: 4, virtualPerSecond: 28, miniature: 10 * time.Second},
	},
	{
		name: "storm",
		why:  "3000 calls/s over four priorities against a 2000 calls/s server, on virtual time: overload.Gate decides every outcome, so datapath work should move only CPU and allocations per call.",
		mix:  []sizeWeight{{600, 1}},
		sim: &simSpec{hosts: 2, link: phy.WiFiLocal, server: phy.Backbone, period: time.Second / 1500, prios: allPrios, service: 2 * time.Millisecond, workers: 4,
			virtualPerSecond: 1.2, miniature: time.Second},
	},
	{
		name: "simdrive",
		why:  "The same wire/rpc/overload code on marsim virtual time (8 hosts, 30 FPS, handovers, partitions): shows a socket gain bought with a simulator slowdown; simnet does most of the work.",
		mix:  []sizeWeight{{1000, 1}},
		sim: &simSpec{hosts: 8, link: phy.WiFiLocal, server: phy.Backbone, period: time.Second / 30, prios: allPrios[:1], service: 3 * time.Millisecond, workers: 8,
			mobility: true, virtualPerSecond: 30, miniature: 10 * time.Second},
	},
}

// transport says what the workload's traffic crosses — the host's
// loopback interface or the simulator — never a real link.
func (w *workloadSpec) transport() string {
	if w.sim != nil {
		return "simulator"
	}
	return "loopback"
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
