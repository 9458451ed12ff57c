package main

import (
	"math"
	"testing"
	"time"
)

func TestGranted(t *testing.T) {
	before := hostCPU{total: 1000, steal: 50}
	// Of 800 ticks 200 were stolen.
	after := hostCPU{total: 1800, steal: 250}
	share, pct := granted(before, after)
	if share != 0.75 || pct != 25 {
		t.Errorf("granted = %v, steal %v%%, want 0.75 and 25%%", share, pct)
	}
	if share, pct := granted(hostCPU{}, hostCPU{}); share != 1 || pct != 0 {
		t.Errorf("no /proc/stat: granted = %v, steal %v%%, want 1 and 0", share, pct)
	}
	m := &measurement{spec: findWorkload("simdrive"), sum: &summary{rate: 7500, speedup: 30}, granted: 0.75}
	if m.rate() != 10000 || m.speedup() != 40 {
		t.Errorf("simulator, per granted second: rate %v speedup %v, want 10000 and 40", m.rate(), m.speedup())
	}
	m.spec = findWorkload("lockstep")
	if m.rate() != 10000 || m.speedup() != 30 {
		t.Errorf("closed loop on sockets: rate %v speedup %v, want 10000 per granted second and the raw 30", m.rate(), m.speedup())
	}
}

func TestSampleRoundTrip(t *testing.T) {
	for _, s := range []sample{
		{lat: 104 * time.Microsecond, slice: 3, out: outOK, top: true},
		{lat: 75 * time.Millisecond, slice: 0, out: outMiss},
		{lat: 0, slice: 65535, out: outFail, top: true},
	} {
		if got := unpack(s.pack()); got != s {
			t.Errorf("unpack(pack(%+v)) = %+v", s, got)
		}
	}
	if got := unpack(sample{lat: time.Minute, slice: 1 << 20}.pack()); got.lat != 1<<32-1 || got.slice != 65535 {
		t.Errorf("out-of-range sample packed to %+v, want saturation", got)
	}
}

// Failures and refusals count against the hit ratio and never enter a
// latency sample; an answer later than the deadline is a sample, not a hit.
func TestSummarize(t *testing.T) {
	rec, err := newRecorder()
	if err != nil {
		t.Fatal(err)
	}
	defer rec.free()
	for i := 0; i < 100; i++ {
		rec.call(sample{lat: time.Duration(i+1) * time.Microsecond, slice: i % 2, out: outOK, top: i%4 == 0})
	}
	rec.call(sample{lat: 80 * time.Millisecond, slice: 0, out: outOK, top: true})   // late
	rec.call(sample{lat: 10 * time.Microsecond, slice: 1, out: outMiss, top: true}) // refused fast
	rec.call(sample{lat: 10 * time.Microsecond, slice: 1, out: outFail})            // wrong bytes
	rec.call(sample{lat: 5 * time.Microsecond, slice: 2, out: outOK})               // after the window closed

	second := sliceUse{timeline: 1, callsWall: 1, useWall: 1.25, cpu: 0.01, mallocs: 2500}
	s := summarize(&windowData{rec: rec, slices: []sliceUse{second, second}})
	if s.attempted != 104 || s.ok != 102 || s.hits != 101 || s.failed != 1 {
		t.Errorf("attempted %d ok %d hits %d failed %d, want 104 102 101 1", s.attempted, s.ok, s.hits, s.failed)
	}
	if s.rate != 50 {
		t.Errorf("rate %v, want 50: two slices of 50 hits; the straggler belongs to neither", s.rate)
	}
	// Slice 0 holds 50 hits and the late answer, slice 1 holds 50 hits,
	// the refusal and the failure; the median of two is their mean.
	if want := (50.0/51 + 50.0/52) / 2; math.Abs(s.hitRatio-want) > 1e-12 {
		t.Errorf("hit ratio %v, want %v", s.hitRatio, want)
	}
	if want := (25.0/26 + 0.0/1) / 2; math.Abs(s.topHitRatio-want) > 1e-12 {
		t.Errorf("top-tier hit ratio %v, want %v", s.topHitRatio, want)
	}
	// Resources were read over 1.25 s, calls counted over 1 s: 2500
	// objects are 2000 for the slice's 51 and 52 calls.
	if want := (2000.0/51 + 2000.0/52) / 2; math.Abs(s.allocsPerCall-want) > 1e-9 {
		t.Errorf("allocs per call %v, want %v", s.allocsPerCall, want)
	}
	if want := (8000.0/51 + 8000.0/50) / 2; math.Abs(s.cpuUsPerCall-want) > 1e-9 {
		t.Errorf("cpu per call %v us, want %v", s.cpuUsPerCall, want)
	}
	if s.speedup != 0.8 {
		t.Errorf("speedup %v, want 0.8", s.speedup)
	}
	if s.p50.Samples != 102 {
		t.Errorf("latency sample holds %d calls, want the 102 OK ones", s.p50.Samples)
	}
}
