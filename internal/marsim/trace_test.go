package marsim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"testing"
	"time"

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

// A tx and an rx line cost no allocation while the current chunk has room
// (the warm-up run allocates it; the 2002 lines measured fill a tenth).
func TestTracePacketLineZeroAlloc(t *testing.T) {
	s, _, _ := traceRig(t)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Trace.packet("tx", "10.0.0.1:9000", "10.0.0.2:9000", 1028, "")
		s.Trace.packet("rx", "10.0.0.1:9000", "10.0.0.2:9000", 1028, "")
	}); allocs != 0 {
		t.Fatalf("trace packet line: %.2f allocs per tx+rx pair, want 0", allocs)
	}
}

// The log is stored in fixed chunks; what it reads back as must not show
// where they end. Three and a half chunks of mixed lines — among them an
// app line longer than a whole chunk's spare room, and one longer than a
// chunk — are compared with the same lines rendered by fmt into one buffer.
func TestTraceChunkBoundaries(t *testing.T) {
	s, _, _ := traceRig(t)
	var ref bytes.Buffer
	lines := 0
	logf := func(format string, args ...any) {
		s.Trace.Logf(format, args...)
		fmt.Fprintf(&ref, "%10d %-5s ", s.Sim.Now().Microseconds(), "app")
		fmt.Fprintf(&ref, format, args...)
		ref.WriteByte('\n')
		lines++
	}
	packet := func(kind string, size int, note string) {
		s.Trace.packet(kind, "10.0.0.1:9000", "10.0.0.2:9000", size, note)
		fmt.Fprintf(&ref, "%10d %-5s %s -> %s %dB%s\n", s.Sim.Now().Microseconds(), kind, "10.0.0.1:9000", "10.0.0.2:9000", size, note)
		lines++
	}
	long := strings.Repeat("x", 3000)
	for i := 0; ref.Len() < 7*traceChunk/2; i++ {
		s.Sim.RunUntil(time.Duration(i) * 37 * time.Microsecond) //nolint:errcheck // no events queued
		packet("tx", i%1500, "")
		packet("drop", i%1500, " endpoint closed")
		if spare := traceChunk - ref.Len()%traceChunk; spare < len(long) {
			logf("call %d err: %s", i, long) // straddles the chunk boundary
		}
		if i == 5000 {
			logf("one line, %d bytes: %s", traceChunk+100, strings.Repeat("y", traceChunk+100))
		}
	}
	if n := len(s.Trace.chunks); n < 4 {
		t.Fatalf("test wrote %d chunks, want >= 4", n)
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
