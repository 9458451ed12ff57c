package marsim

import (
	"bytes"
	"fmt"
	"hash/fnv"
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
func traceRig(t *testing.T) (s *Scenario, a, b *Endpoint) {
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
// room (the warm-up run allocates it; the 2002 records measured fill a
// sixteenth).
func TestTracePacketLineZeroAlloc(t *testing.T) {
	s, a, b := traceRig(t)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Trace.packet(obs.EvDgramTx, a.tid, b.tid, 1028)
		s.Trace.packet(obs.EvDgramRx, a.tid, b.tid, 1028)
	}); allocs != 0 {
		t.Fatalf("trace packet record: %.2f allocs per tx+rx pair, want 0", allocs)
	}
}

// The log holds a record per packet, not its ~54-byte line: across whole
// chunks, the live heap grows by the 32-byte record alone.
func TestTraceBytesPerEvent(t *testing.T) {
	s, a, b := traceRig(t)
	const records = 4 * chunkEvents // 131 072, whole chunks: the slack of a filling one is not the steady cost
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < records/2; i++ {
		s.Trace.packet(obs.EvDgramTx, a.tid, b.tid, 1028)
		s.Trace.packet(obs.EvDgramRx, a.tid, b.tid, 1028)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / records
	t.Logf("%d records: %.2f heap bytes each", s.Trace.Lines(), per)
	if per > 33 {
		t.Fatalf("the trace grows %.2f heap bytes per tx/rx record, want <= 33", per)
	}
	runtime.KeepAlive(s)
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
// reads back as must not show where either ends. Three and a half chunks of
// records — packet lines of every kind and app lines, among them texts
// straddling a text-chunk boundary and one longer than a text chunk — are
// compared with the same lines rendered by fmt into one buffer.
func TestTraceChunkBoundaries(t *testing.T) {
	s, a, b := traceRig(t)
	sink := s.Trace.intern("192.0.2.1:53")
	var ref bytes.Buffer
	lines, straddles := 0, 0
	logf := func(format string, args ...any) {
		text := fmt.Sprintf(format, args...)
		if start := s.Trace.textLen(); text != "" && (start+len(text)-1)/traceChunk > start/traceChunk {
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
	for i := 0; lines < 7*chunkEvents/2; i++ {
		s.Sim.RunUntil(time.Duration(i) * 37 * time.Microsecond) //nolint:errcheck // no events queued
		packet(obs.EvDgramTx, b.tid, "10.0.0.2:9000", i%1500)
		packet(obs.EvDgramRx, b.tid, "10.0.0.2:9000", i%1500)
		packet(obs.EvDgramDrop, b.tid, "10.0.0.2:9000", i%1500)
		packet(obs.EvDgramSink, sink, "192.0.2.1:53", i%1500)
		logf("call %d: %s", i, strings.Repeat("z", i%200))
		if spare := traceChunk - s.Trace.textLen()%traceChunk; spare < len(long) {
			logf("call %d err: %s", i, long) // straddles the text-chunk boundary
		}
		if i == 5000 {
			logf("one line, %d bytes: %s", traceChunk+100, strings.Repeat("y", traceChunk+100))
		}
	}
	if n, m := len(s.Trace.chunks), len(s.Trace.text); n < 4 || m < 4 || straddles < 3 {
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
