package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// An untraced run sets its workload up several times and reports the
// median set-up time (see runUntraced for what it measures on those
// rigs). A simulated set-up is a few tenths of a second of pure CPU work,
// so it takes more repetitions to give a steady median than a socket
// set-up, which its fixed-length warm-up dominates.
const (
	setupReps    = 3
	simSetupReps = 11
)

// provenance is what a number needs before it counts (ROADMAP aim 1).
type provenance struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Sessions   int    `json:"client_sessions"`
	Started    string `json:"started"`
}

func newProvenance(seed int64) provenance {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return provenance{
		Host: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Seed: seed, Sessions: sessions(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the revision the binary was built from: stamped by the go
// tool when it could see the repository, else asked of git, else unknown
// (the acceptance driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// procSnap is the process's resource use at one instant; taking it stops
// the world (ReadMemStats), so it is taken only at window boundaries.
type procSnap struct {
	usage
	bytes  uint64
	numGC  uint32
	pauses *metrics.Float64Histogram
}

func takeProcSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{usage: readUsage(), bytes: ms.TotalAlloc, numGC: ms.NumGC}
	sample := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64Histogram {
		s.pauses = sample[0].Value.Float64Histogram()
	}
	return s
}

// usage is the part of a procSnap that is cheap enough to read at every
// slice boundary: no stop-the-world.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64        // heap objects allocated: MemStats.Mallocs
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	// Together these are MemStats.Mallocs, read without stopping the world.
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(samples)
	for _, sm := range samples {
		if sm.Value.Kind() == metrics.KindUint64 {
			u.mallocs += sm.Value.Uint64()
		}
	}
	return u
}

// pauseQuantile is the q-quantile (seconds, upper bucket bound) of the
// GC pauses between two snapshots, and how many there were.
func pauseQuantile(before, after *metrics.Float64Histogram, q float64) (float64, int) {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0, 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0, 0
	}
	rank := uint64(q*float64(total)) + 1
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range after.Counts {
		cum += after.Counts[i] - before.Counts[i]
		if cum >= rank {
			return after.Buckets[i+1], int(total)
		}
	}
	return 0, int(total)
}

// summary is one window's samples reduced to what the metrics need.
// Every rate and ratio is computed per slice and reported as the median
// slice: one stalled second (a GC cycle landing badly, a neighbour on the
// VM) moves a mean; it does not move the median.
type summary struct {
	attempted, ok, hits, failed int // over the whole window, stragglers included
	whyFailed                   map[string]int

	rate          float64 // deadline hits per second
	hitRatio      float64 // deadline hits ÷ attempted
	topHitRatio   float64 // the same, PrioHighest calls only
	allocsPerCall float64 // heap objects ÷ attempted
	cpuUsPerCall  float64 // CPU µs ÷ OK calls
	speedup       float64 // workload seconds ÷ wall seconds
	p50           tail    // µs; the median of each slice, then the median slice

	wholeP99, wholeP999 tail    // µs; over the whole window, under the minBeyond rule
	issueP50            float64 // ns; rigs built for tracing
}

// sliceCount is what one slice's calls add up to.
type sliceCount struct {
	attempted, ok, hits, topAttempted, topHits int
}

// summarize reduces the window's records. Latency samples are OK calls
// only: a failure or refusal is a missed deadline, never a fast sample.
func summarize(w *windowData) *summary {
	s := &summary{whyFailed: w.rec.whyFailed}
	n := len(w.slices)
	counts := make([]sliceCount, n+1) // [n] holds calls that finished after the window closed
	lats := make([][]float64, n+1)
	for i := 0; i < w.rec.calls.n; i++ {
		c := unpack(w.rec.calls.get(i))
		sl := min(c.slice, n)
		k := &counts[sl]
		s.attempted++
		k.attempted++
		if c.top {
			k.topAttempted++
		}
		switch c.out {
		case outFail:
			s.failed++
		case outOK:
			s.ok++
			k.ok++
			lats[sl] = append(lats[sl], float64(c.lat)/1e3)
			if c.lat <= callDeadline {
				s.hits++
				k.hits++
				if c.top {
					k.topHits++
				}
			}
		}
	}
	var rates []slice
	var hit, top, allocs, cpu, speed []float64
	ratio := func(dst *[]float64, x, by float64) {
		if by > 0 {
			*dst = append(*dst, x/by)
		}
	}
	for i, u := range w.slices {
		k := counts[i]
		rates = append(rates, slice{hits: k.hits, wall: u.callsWall})
		ratio(&hit, float64(k.hits), float64(k.attempted))
		ratio(&top, float64(k.topHits), float64(k.topAttempted))
		// Resources are read a little after the slice's calls are cut off;
		// scale them to the calls' interval.
		scale := 1.0
		if u.useWall > 0 {
			scale = u.callsWall / u.useWall
		}
		ratio(&allocs, u.mallocs*scale, float64(k.attempted))
		ratio(&cpu, u.cpu*1e6*scale, float64(k.ok))
		ratio(&speed, u.timeline, u.useWall)
	}
	s.rate = sliceMedianRate(rates)
	s.hitRatio, s.topHitRatio = median(hit), median(top)
	s.allocsPerCall, s.cpuUsPerCall, s.speedup = median(allocs), median(cpu), median(speed)

	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	var p50s []float64
	for _, l := range lats[:n] {
		if len(l) > 0 {
			sort.Float64s(l)
			p50s = append(p50s, quantile(l, 0.5))
		}
	}
	s.p50 = tail{Value: median(p50s), Percentile: 0.5, Samples: len(all)}
	s.wholeP99 = tailOf(all, 0.99)
	s.wholeP999 = tailOf(all, 0.999)

	s.issueP50 = quantile(storeFloats(w.rec.issue, 1), 0.5)
	return s
}

// storeFloats returns st's records, scaled and sorted.
func storeFloats(st *store, scale float64) []float64 {
	out := make([]float64, st.n)
	for i := range out {
		out[i] = float64(st.get(i)) * scale
	}
	sort.Float64s(out)
	return out
}

// measurement is one window with the process's resource use around it.
type measurement struct {
	spec          *workloadSpec
	w             *windowData
	sum           *summary
	before, after procSnap
	heapMB        float64
	granted       float64 // share of the guest's CPU time the hypervisor did not take
	stealPct      float64 // share of the window's CPU time the hypervisor took from the guest
}

// rate and speedup are the wall-clock throughputs, per granted second
// where the CPU is what limits them: every workload's rate (a closed loop
// and a simulation go as fast as the CPU lets them) and a simulation's
// speed. A socket workload's timeline is the wall clock itself; its
// speedup stays as read.
func (m *measurement) rate() float64 { return m.sum.rate / m.granted }

func (m *measurement) speedup() float64 {
	if m.spec.sim == nil {
		return m.sum.speedup
	}
	return m.sum.speedup / m.granted
}

// hostCPU is the guest's cumulative CPU accounting from /proc/stat, in
// ticks: total is everything, idle time included; steal is what the guest
// wanted to run but the hypervisor gave to someone else. On a host
// without /proc/stat both are 0.
type hostCPU struct{ total, steal float64 }

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; the guest columns
	// that follow are already inside user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// granted is the share of the guest's CPU time between two readings that
// the hypervisor did not take: 1 − steal ÷ total, 1 on a host that steals
// nothing. Within a run every workload's rate falls in proportion to it
// (slices of one window, rate against steal share: slope −1 on all five),
// so CPU-limited wall-clock throughputs are reported per granted second:
// the median slice's rate ÷ granted. Dividing by busy ÷ (busy + steal)
// instead assumes that every stolen tick was wanted by the workload, which
// over-corrects whatever leaves a CPU partly idle (lockstep, and the
// simulations' second CPU): its readings rose by a third from a quiet
// hour to a busy one.
func granted(before, after hostCPU) (share, stealPct float64) {
	steal, total := after.steal-before.steal, after.total-before.total
	if steal < 0 || total <= 0 || steal >= total {
		return 1, 0
	}
	return 1 - steal/total, 100 * steal / total
}

// measure runs one window on r. The live heap is read after a forced
// collection at the window's end, before teardown, once the window's own
// samples have been reduced and released.
func measure(spec *workloadSpec, r rig, d time.Duration, traced bool) (*measurement, error) {
	runtime.GC()
	host0 := readHostCPU()
	m := &measurement{spec: spec, before: takeProcSnap()}
	w, err := r.window(d, traced)
	if err != nil {
		return nil, err
	}
	m.after = takeProcSnap()
	m.granted, m.stealPct = granted(host0, readHostCPU())
	m.w = w
	m.sum = summarize(w)
	w.rec.free()
	w.rec = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / 1e6
	return m, nil
}

func setUp(spec *workloadSpec, seed int64, window time.Duration, traced bool) (rig, error) {
	if spec.sim != nil {
		return setUpSim(spec, seed, traced)
	}
	return newSocketRig(spec, seed, window, traced)
}

// hitFloors are the hit ratios a healthy stack reaches on each workload.
// A baseline below them measures the harness, not the stack.
var hitFloors = map[string]float64{"lockstep": 0.99, "pipelined": 0.99, "lossy": 0.95, "storm": 0.99, "simdrive": 0.90}

// runWorkload runs spec once, checks the outputs and tears down.
// Untraced it reports the end-to-end metrics, traced the per-layer ones.
func runWorkload(spec *workloadSpec, seed int64, window time.Duration, traced bool) (*workloadResult, error) {
	res := &workloadResult{Transport: spec.transport(), WarmupS: warmup(window).Seconds()}
	run := runUntraced
	if traced {
		run = runTraced
	}
	if err := run(res, spec, seed, window); err != nil {
		return nil, err
	}
	if res.OpsFailed > 0 {
		res.Failed = append(res.Failed, fmt.Sprintf("%d of %d calls failed (never issued or recorded, or by cause): %v",
			res.OpsFailed, res.OpsAttempted, res.whyFailed))
	}
	return res, nil
}

// timedSetUp sets spec up and says how long that took. A simulated set-up
// is pure CPU work; like the CPU-limited throughputs it is reported in
// granted seconds. A socket set-up is mostly its fixed-length warm-up and
// stays as read.
func timedSetUp(spec *workloadSpec, seed int64, window time.Duration, traced bool) (rig, float64, error) {
	t0, host0 := time.Now(), readHostCPU()
	r, err := setUp(spec, seed, window, traced)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0).Seconds()
	if spec.sim != nil {
		share, _ := granted(host0, readHostCPU())
		took *= share
	}
	return r, took, nil
}

// count adds one window's calls to the result.
func (res *workloadResult) count(m *measurement) {
	res.OpsAttempted += m.sum.attempted + m.w.lostCalls
	res.OpsFailed += m.sum.failed + m.w.lostCalls
	for why, n := range m.sum.whyFailed {
		if res.whyFailed == nil {
			res.whyFailed = map[string]int{}
		}
		res.whyFailed[why] += n
	}
	if m.w.lostCalls > 0 {
		if res.whyFailed == nil {
			res.whyFailed = map[string]int{}
		}
		res.whyFailed["never issued or recorded"] += m.w.lostCalls
	}
}

// runUntraced sets the workload up several times and reports the median
// set-up time. On sockets every one of those rigs is measured for its
// share of the window and each metric is the median over the rigs: after
// one long freeze of the VM overload.Gate can refuse a tier for the rest
// of a server's life (README.md), which a run that measured one server
// for 18 s met one time in ten and then read zero calls/s. On the
// simulator nothing freezes, and the window must be one stretch of
// virtual time (the mobility script and the trace scale with it): the
// last rig is measured for all of it.
func runUntraced(res *workloadResult, spec *workloadSpec, seed int64, window time.Duration) error {
	reps, measured := setupReps, setupReps
	if spec.sim != nil {
		reps, measured = simSetupReps, 1
	}
	share := window / time.Duration(measured)
	var setups []float64
	var ms []*measurement
	for i := 0; i < reps; i++ {
		rigSeed := seed
		if measured > 1 {
			rigSeed += int64(i) << 32 // each measured rig draws inputs of its own
		}
		r, took, err := timedSetUp(spec, rigSeed, window, false)
		if err != nil {
			return err
		}
		setups = append(setups, took)
		if i >= reps-measured {
			m, err := measure(spec, r, share, false)
			if err != nil {
				r.close()
				return err
			}
			ms = append(ms, m)
			res.count(m)
		}
		_, failed := r.close()
		res.Failed = append(res.Failed, failed...)
	}

	over := func(f func(*measurement) float64) float64 {
		xs := make([]float64, len(ms))
		for i, m := range ms {
			xs[i] = f(m)
		}
		return median(xs)
	}
	vs := values{}
	for _, d := range endToEnd {
		vs[d.Name] = over(func(m *measurement) float64 { return endToEndValues(m, median(setups))[d.Name] })
	}
	res.EndToEnd = points(endToEnd, vs)
	res.WindowS, res.Windows = share.Seconds(), measured
	res.CPUUsPerCall = over(func(m *measurement) float64 { return m.sum.cpuUsPerCall })
	res.HostStealPct = over(func(m *measurement) float64 { return m.stealPct })
	res.GrantedCPUShare = over(func(m *measurement) float64 { return m.granted })
	tails := func(f func(*summary) tail) tail {
		ts := make([]tail, len(ms))
		for i, m := range ms {
			ts[i] = f(m.sum)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i].Value < ts[j].Value })
		return ts[len(ts)/2]
	}
	res.Percentiles = map[string]tail{
		"call_p50_us":  tails(func(s *summary) tail { return s.p50 }),
		"call_p99_us":  tails(func(s *summary) tail { return s.wholeP99 }),
		"call_p999_us": tails(func(s *summary) tail { return s.wholeP999 }),
	}

	name := "deadline_hit_ratio"
	if spec.name == "storm" {
		name = "top_tier_hit_ratio"
	}
	if hit, floor := vs[name], hitFloors[spec.name]; hit < floor {
		res.Health = append(res.Health, fmt.Sprintf("%s %.4f is below the healthy baseline %.2f", name, hit, floor))
	}
	return nil
}

// runTraced sets up once and runs two equal halves on the one rig — an
// untraced reference and the traced window — so that both see the same
// workload (simdrive scales its mobility script to the window) and differ
// only in tracing; then the micro-loops, on a quiet process.
func runTraced(res *workloadResult, spec *workloadSpec, seed int64, window time.Duration) error {
	r, err := setUp(spec, seed, window, true)
	if err != nil {
		return err
	}
	ref, err := measure(spec, r, window/2, false)
	if err != nil {
		r.close()
		return err
	}
	before := r.snapshot()
	m, err := measure(spec, r, window/2, true)
	if err != nil {
		r.close()
		return err
	}
	after := r.snapshot()
	post, failed := r.close()
	res.Failed = append(res.Failed, failed...)
	mi, err := runMicros(spec, window)
	if err != nil {
		return fmt.Errorf("%s: micro-loops: %w", spec.name, err)
	}
	vs := perLayerValues(spec, ref, m, before, after, post, mi)
	res.PerLayer = points(perLayer, vs)
	res.TracedWindowS = (window / 2).Seconds()
	res.Percentiles = map[string]tail{"rpc.call_p99_us": m.sum.wholeP99, "rpc.call_p999_us": m.sum.wholeP999}
	if e := vs["obs.budget.sum_err_max"]; e != 0 {
		res.Failed = append(res.Failed, fmt.Sprintf("obs.budget.sum_err_max = %.0f ns, want 0", e))
	}
	res.HostStealPct, res.GrantedCPUShare = m.stealPct, m.granted
	res.count(m)
	return nil
}

// endToEndValues turns an untraced measurement into the end-to-end
// metrics. Every workload reports every metric under one definition.
func endToEndValues(m *measurement, setup float64) values {
	s := m.sum
	return values{
		"setup_s":            setup,
		"calls_per_s":        m.rate(),
		"call_p50_us":        s.p50.Value,
		"deadline_hit_ratio": s.hitRatio,
		"top_tier_hit_ratio": s.topHitRatio,
		"allocs_per_call":    s.allocsPerCall,
		"live_heap_mb":       m.heapMB,
		"sim_speedup":        m.speedup(),
	}
}
