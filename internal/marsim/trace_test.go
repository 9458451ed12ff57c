package marsim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"marnet/internal/obs"
	"marnet/internal/phy"
)

// traceRig is two endpoints on links slow enough that every line of the
// test gets its own timestamp: 1 Mb/s and 5 ms each way, no jitter or loss.
func traceRig(t testing.TB) (s *Scenario, a, b *Endpoint) {
	t.Helper()
	s = NewScenario("trace", 1)
	p := phy.Profile{Name: "test", Up: 1e6, Down: 1e6, OneWay: 5 * time.Millisecond}
	a, b = s.Net.NewEndpoint("a", p), s.Net.NewEndpoint("b", p)
	a.Start(func([]byte, *net.UDPAddr, int) {})
	b.Start(func([]byte, *net.UDPAddr, int) {})
	return s, a, b
}

// The packet lines are formatted by hand (strconv into the trace buffer);
// every Trace.Hash the repo pins depends on them matching what fmt's
// "%10d %-5s %s -> %s %dB" used to render, byte for byte: the timestamp
// right-aligned in ten columns, the kind left-aligned in five, endpoints as
// ip:port.
func TestTraceGoldenLines(t *testing.T) {
	s, a, b := traceRig(t)
	s.At(1234*time.Microsecond, func() {
		a.WriteToUDP(make([]byte, 100), b.UDPAddr()) //nolint:errcheck // simulated
	})
	s.At(20*time.Millisecond, func() { s.Logf("phase %d of %s", 2, "golden") })
	s.At(30*time.Millisecond, func() {
		b.WriteToUDP(make([]byte, 7), a.UDPAddr()) //nolint:errcheck // simulated
		a.Close()
	})
	s.At(1500*time.Millisecond, func() {
		b.WriteToUDP(make([]byte, 1200), &net.UDPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 53}) //nolint:errcheck // simulated
	})
	if err := s.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	// 128 B on the wire at 1 Mb/s is 1024 µs per link, 35 B is 280 µs.
	want := []string{
		"      1234 tx    10.0.0.1:9000 -> 10.0.0.2:9000 100B",
		"     13282 rx    10.0.0.1:9000 -> 10.0.0.2:9000 100B",
		"     20000 app   phase 2 of golden",
		"     30000 tx    10.0.0.2:9000 -> 10.0.0.1:9000 7B",
		"     35280 drop  10.0.0.2:9000 -> 10.0.0.1:9000 7B endpoint closed",
		"   1500000 tx    10.0.0.2:9000 -> 192.0.2.1:53 1200B",
		"   1514824 sink  10.0.0.2:9000 -> 192.0.2.1:53 1200B no route",
	}
	got := strings.Split(strings.TrimSuffix(string(s.Trace.Bytes()), "\n"), "\n")
	if len(got) != len(want) || s.Trace.Lines() != len(want) {
		t.Fatalf("trace has %d lines (Lines() = %d), want %d:\n%s", len(got), s.Trace.Lines(), len(want), s.Trace.Bytes())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
	// And the same through fmt, which is what wrote these lines before.
	if line := fmt.Sprintf("%10d %-5s %s -> %s %dB", 13282, "rx", a.UDPAddr(), b.UDPAddr().String(), 100); line != got[1] {
		t.Errorf("fmt renders %q, trace has %q", line, got[1])
	}
}

// A tx and an rx record cost no allocation while the current chunk has
// room (the warm-up run allocates it; the 2002 records measured take 12 KB
// of its 256 KiB).
func TestTracePacketLineZeroAlloc(t *testing.T) {
	s, a, b := traceRig(t)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Trace.packet(obs.EvDgramTx, a.tid, b.tid, 1028)
		s.Trace.packet(obs.EvDgramRx, a.tid, b.tid, 1028)
	}); allocs != 0 {
		t.Fatalf("trace packet record: %.2f allocs per tx+rx pair, want 0", allocs)
	}
}

// The log holds a packet's record encoded, not its 32-byte obs.Event nor
// its ~54-byte line: across four whole chunks of tx/rx pairs 37 µs apart,
// the live heap grows by about 7 bytes a record.
func TestTraceBytesPerEvent(t *testing.T) {
	s, a, b := traceRig(t)
	i := 0
	pair := func() {
		s.Sim.RunUntil(time.Duration(i) * 37 * time.Microsecond) //nolint:errcheck // no events queued
		s.Trace.packet(obs.EvDgramTx, a.tid, b.tid, 1028)
		s.Trace.packet(obs.EvDgramRx, a.tid, b.tid, 1028)
		i++
	}
	// Measure from a chunk's opening to the opening of the fourth after
	// it: the slack of a filling chunk is not the steady cost.
	for n := len(s.Trace.log); len(s.Trace.log) == n; {
		pair()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	first, start := i, len(s.Trace.log)
	for len(s.Trace.log) < start+4 {
		pair()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	records := 2 * (i - first)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(records)
	t.Logf("%d records: %.2f heap bytes each", records, per)
	if per > 10 {
		t.Fatalf("the trace grows %.2f heap bytes per tx/rx record, want <= 10", per)
	}
	runtime.KeepAlive(s)
}

// Events reads back exactly the records written: every field of obs.Event
// survives the encoding, at its widest too — Flag and A set, name ids past
// 65 535, C using both halves, time steps of zero, past 2^35 ns and
// backwards — and a log of nothing but the longest records fills its
// chunks to within one record without a record spanning two.
func TestTraceEventsRoundTrip(t *testing.T) {
	tr := NewTrace(nil)
	want := []obs.Event{
		{At: 5 * time.Millisecond, Kind: obs.EvDgramTx, B: 1200, C: 70000<<32 | 99999},
		{At: 5 * time.Millisecond, Kind: obs.EvDgramRx, B: 1200, C: 99999<<32 | 70000},
		{At: 5*time.Millisecond + 1<<35 + 1, Kind: obs.EvFrameSend, Flag: 7, B: 3, C: 0xdeadbeef_cafef00d},
		{At: 5*time.Millisecond + 1<<36, Kind: obs.EvPathState, A: 65535, C: 1 << 63},
		{At: time.Millisecond, Kind: obs.EvAdaptMove, Flag: 255, A: 1, B: 1<<32 - 1, C: 1<<32 - 1},
		{At: time.Millisecond, Kind: obs.EvAppLog, B: 17, C: 1 << 40},
		{At: math.MinInt64, Kind: obs.EvSLOTrigger, Flag: 1, A: 65535, B: 1<<32 - 1, C: 1<<64 - 1},
		{At: math.MaxInt64, Kind: obs.EvSLOTrigger, Flag: 1, A: 65535, B: 1<<32 - 1, C: 1<<64 - 1},
	}
	for len(want) < 3*logChunk/maxRecord { // the last two are maxRecord bytes each
		want = append(want, want[len(want)-2:]...)
	}
	for _, e := range want {
		tr.add(e)
	}
	if len(tr.log) < 3 {
		t.Fatalf("the test wrote %d chunks, want >= 3", len(tr.log))
	}
	var got []obs.Event
	tr.Events(func(e obs.Event) bool { got = append(got, e); return true })
	if len(got) != len(want) {
		t.Fatalf("Events() read %d records, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: read %+v, wrote %+v", i, got[i], want[i])
		}
	}
	for i, c := range tr.log[:len(tr.log)-1] {
		if spare := cap(c) - len(c); spare >= maxRecord {
			t.Errorf("chunk %d closed with %d bytes spare, room for another record", i, spare)
		}
	}
}

// The numbers of a line are rendered by hand; they must read as fmt's
// "%10d" and "%d" render them at every length, up to the widest uint64.
func TestTraceDecimals(t *testing.T) {
	vs := []uint64{0, math.MaxUint64}
	for p := uint64(1); p <= math.MaxUint64/10; p *= 10 {
		vs = append(vs, p-1, p, p+1, 10*p-1)
	}
	for _, v := range vs {
		if got, want := string(appendDecimal([]byte("x"), v, 10)), fmt.Sprintf("x%10d", v); got != want {
			t.Errorf("appendDecimal(%d, 10) = %q, want %q", v, got, want)
		}
		if got, want := string(appendDecimal(nil, v, 0)), fmt.Sprint(v); got != want || decimalWidth(v, 0) != len(want) {
			t.Errorf("appendDecimal(%d, 0) = %q in %d columns, want %q", v, got, decimalWidth(v, 0), want)
		}
	}
}

// Hash streams the rendered lines through FNV-1a one at a time: what it
// allocates does not grow with the log.
func TestTraceHashStreams(t *testing.T) {
	s, a, b := traceRig(t)
	long := strings.Repeat("x", 3000)
	write := func(n int) {
		for i := 0; i < n; i++ {
			s.Trace.packet(obs.EvDgramTx, a.tid, b.tid, i)
			if i%100 == 0 {
				s.Trace.Logf("call %d err: %s", i, long)
			}
		}
	}
	measure := func() (allocs float64, size uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(5, func() { s.Trace.Hash() })
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 6 // AllocsPerRun's warm-up and 5 runs
	}
	write(1000)
	smallAllocs, smallBytes := measure()
	write(100000)
	bigAllocs, bigBytes := measure()
	t.Logf("Hash over %d lines: %.0f allocs, %d B; over %d lines: %.0f allocs, %d B",
		1000+1000/100, smallAllocs, smallBytes, s.Trace.Lines(), bigAllocs, bigBytes)
	if bigAllocs != smallAllocs || bigBytes > smallBytes+64 {
		t.Fatalf("Hash allocates %.0f objects, %d B over %d lines and %.0f, %d B over 1010: want the same",
			bigAllocs, bigBytes, s.Trace.Lines(), smallAllocs, smallBytes)
	}
}

// The records and the Logf text are stored in fixed chunks; what the trace
// reads back as must not show where either ends. Four chunks of records and
// as many of text or more — packet lines of every kind and app lines, among them texts
// straddling a text-chunk boundary and one longer than a text chunk — are
// compared with the same lines rendered by fmt into one buffer.
func TestTraceChunkBoundaries(t *testing.T) {
	s, a, b := traceRig(t)
	sink := s.Trace.intern("192.0.2.1:53")
	var ref bytes.Buffer
	lines, straddles := 0, 0
	logf := func(format string, args ...any) {
		text := fmt.Sprintf(format, args...)
		if start := s.Trace.textLen(); text != "" && (start+len(text)-1)/textChunk > start/textChunk {
			straddles++
		}
		s.Trace.Logf(format, args...)
		fmt.Fprintf(&ref, "%10d %-5s %s\n", s.Sim.Now().Microseconds(), "app", text)
		lines++
	}
	labels := map[obs.EventKind][2]string{ // kind and note, as the lines print them
		obs.EvDgramTx:   {"tx", ""},
		obs.EvDgramRx:   {"rx", ""},
		obs.EvDgramDrop: {"drop", " endpoint closed"},
		obs.EvDgramSink: {"sink", " no route"},
	}
	packet := func(kind obs.EventKind, dst uint32, dstText string, size int) {
		s.Trace.packet(kind, a.tid, dst, size)
		fmt.Fprintf(&ref, "%10d %-5s %s -> %s %dB%s\n", s.Sim.Now().Microseconds(), labels[kind][0], a.UDPAddr(), dstText, size, labels[kind][1])
		lines++
	}
	long := strings.Repeat("x", 3000)
	for i := 0; len(s.Trace.log) < 4 || len(s.Trace.text) < 4; i++ {
		s.Sim.RunUntil(time.Duration(i) * 37 * time.Microsecond) //nolint:errcheck // no events queued
		packet(obs.EvDgramTx, b.tid, "10.0.0.2:9000", i%1500)
		packet(obs.EvDgramRx, b.tid, "10.0.0.2:9000", i%1500)
		packet(obs.EvDgramDrop, b.tid, "10.0.0.2:9000", i%1500)
		packet(obs.EvDgramSink, sink, "192.0.2.1:53", i%1500)
		logf("call %d: %s", i, strings.Repeat("z", i%200))
		if spare := textChunk - s.Trace.textLen()%textChunk; spare < len(long) {
			logf("call %d err: %s", i, long) // straddles the text-chunk boundary
		}
		if i == 5000 {
			logf("one line, %d bytes: %s", textChunk+100, strings.Repeat("y", textChunk+100))
		}
	}
	if n, m := len(s.Trace.log), len(s.Trace.text); n < 4 || m < 4 || straddles < 3 {
		t.Fatalf("test wrote %d record chunks and %d text chunks, %d texts straddling; want >= 4, >= 4, >= 3", n, m, straddles)
	}
	if got := s.Trace.Bytes(); !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("chunked trace (%d bytes) differs from the single-buffer reference (%d bytes)", len(got), ref.Len())
	}
	h := fnv.New64a()
	h.Write(ref.Bytes())
	if got, want := s.Trace.Hash(), h.Sum64(); got != want {
		t.Errorf("Hash() = %016x, reference %016x", got, want)
	}
	if got := s.Trace.Lines(); got != lines {
		t.Errorf("Lines() = %d, wrote %d", got, lines)
	}
}

// BenchmarkTrace times the log per record: writing one packet record (add),
// and reading 101 000 records, one in a hundred an app line, back as the
// digest (Hash) and as text (Bytes).
func BenchmarkTrace(b *testing.B) {
	s, x, y := traceRig(b)
	const n = 100000
	for i := 0; i < n; i++ {
		s.Sim.RunUntil(time.Duration(i) * 37 * time.Microsecond) //nolint:errcheck // no events queued
		s.Trace.packet(obs.EvDgramTx+obs.EventKind(i%2), x.tid, y.tid, 60+i%1400)
		if i%100 == 0 {
			s.Trace.Logf("call %d ok in %v", i, time.Duration(i)*time.Microsecond)
		}
	}
	b.Run("add", func(b *testing.B) {
		var t *Trace
		for i := 0; i < b.N; i++ {
			if i%(1<<16) == 0 { // a fresh log now and then: the benchmark's heap stays small
				t = NewTrace(s.Sim)
			}
			t.add(obs.Event{At: time.Duration(i) * 37 * time.Microsecond, Kind: obs.EvDgramTx, B: uint32(60 + i%1400), C: uint64(x.tid)<<32 | uint64(y.tid)})
		}
	})
	b.Run("Hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Trace.Hash()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n+n/100), "ns/record")
	})
	b.Run("Bytes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Trace.Bytes()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n+n/100), "ns/record")
	})
}
