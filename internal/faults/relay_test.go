package faults

import (
	"net"
	"sync"
	"testing"
	"time"
)

// udpSink is a test UDP server recording received payloads and optionally
// echoing them back.
type udpSink struct {
	sock *net.UDPConn
	echo bool

	mu   sync.Mutex
	pkts [][]byte
}

func newSink(t *testing.T, echo bool) *udpSink {
	t.Helper()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := &udpSink{sock: sock, echo: echo}
	go func() {
		buf := make([]byte, 65535)
		for {
			n, raddr, err := sock.ReadFromUDP(buf)
			if err != nil {
				return
			}
			pkt := append([]byte(nil), buf[:n]...)
			s.mu.Lock()
			s.pkts = append(s.pkts, pkt)
			s.mu.Unlock()
			if echo {
				sock.WriteToUDP(pkt, raddr) //nolint:errcheck // test echo
			}
		}
	}()
	t.Cleanup(func() { sock.Close() })
	return s
}

func (s *udpSink) addr() string { return s.sock.LocalAddr().String() }

func (s *udpSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pkts)
}

func (s *udpSink) snapshot() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.pkts...)
}

func newTestClient(t *testing.T) *net.UDPConn {
	t.Helper()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sock.Close() })
	return sock
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

func TestRelayForwardsBothDirectionsInOrder(t *testing.T) {
	sink := newSink(t, true)
	relay, err := NewRelay(sink.addr(), Config{
		Up:   DirConfig{Delay: 2 * time.Millisecond},
		Down: DirConfig{Delay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	client := newTestClient(t)
	raddr, _ := net.ResolveUDPAddr("udp", relay.Addr())
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := client.WriteToUDP([]byte{byte(i)}, raddr); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 3*time.Second, func() bool { return sink.count() >= n }) {
		t.Fatalf("sink received %d/%d", sink.count(), n)
	}
	// Equal per-packet delays must preserve arrival order (the single
	// ordered delay queue, not per-packet timers).
	for i, pkt := range sink.snapshot() {
		if len(pkt) != 1 || pkt[0] != byte(i) {
			t.Fatalf("packet %d out of order: got %v", i, pkt)
		}
	}
	// The echo came back through the Down direction.
	echoes := 0
	buf := make([]byte, 64)
	client.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	for echoes < n {
		if _, _, err := client.ReadFromUDP(buf); err != nil {
			break
		}
		echoes++
	}
	if echoes != n {
		t.Errorf("client got %d/%d echoes back", echoes, n)
	}
	up, down := relay.Counters(Up), relay.Counters(Down)
	if up.Forwarded != n || down.Forwarded != n {
		t.Errorf("forwarded up=%d down=%d, want %d each", up.Forwarded, down.Forwarded, n)
	}
	if both := relay.Counters(Both); both.Received != 2*n {
		t.Errorf("both.Received = %d, want %d", both.Received, 2*n)
	}
}

func TestRelayBlackholeToggle(t *testing.T) {
	sink := newSink(t, false)
	relay, err := NewRelay(sink.addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	client := newTestClient(t)
	raddr, _ := net.ResolveUDPAddr("udp", relay.Addr())

	relay.SetBlackhole(Both, true)
	for i := 0; i < 10; i++ {
		client.WriteToUDP([]byte{1}, raddr) //nolint:errcheck
	}
	waitFor(t, 200*time.Millisecond, func() bool { return relay.Counters(Up).Received >= 10 })
	if sink.count() != 0 {
		t.Fatalf("blackholed relay delivered %d packets", sink.count())
	}
	if c := relay.Counters(Up); c.Blackholed != 10 {
		t.Errorf("blackholed = %d, want 10", c.Blackholed)
	}
	if relay.TotalDropped() != 10 {
		t.Errorf("TotalDropped = %d, want 10", relay.TotalDropped())
	}

	relay.SetBlackhole(Both, false)
	client.WriteToUDP([]byte{2}, raddr) //nolint:errcheck
	if !waitFor(t, time.Second, func() bool { return sink.count() == 1 }) {
		t.Error("packet not delivered after blackhole lifted")
	}
}

func TestRelayUpstreamSwap(t *testing.T) {
	sink1 := newSink(t, false)
	sink2 := newSink(t, false)
	relay, err := NewRelay(sink1.addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	client := newTestClient(t)
	raddr, _ := net.ResolveUDPAddr("udp", relay.Addr())

	client.WriteToUDP([]byte{1}, raddr) //nolint:errcheck
	if !waitFor(t, time.Second, func() bool { return sink1.count() == 1 }) {
		t.Fatal("packet never reached first upstream")
	}
	if err := relay.SetUpstream(sink2.addr()); err != nil {
		t.Fatal(err)
	}
	client.WriteToUDP([]byte{2}, raddr) //nolint:errcheck
	if !waitFor(t, time.Second, func() bool { return sink2.count() == 1 }) {
		t.Fatal("packet never reached swapped upstream")
	}
	if sink1.count() != 1 {
		t.Errorf("old upstream got %d packets after swap", sink1.count())
	}
	if relay.Swaps() != 1 {
		t.Errorf("swaps = %d, want 1", relay.Swaps())
	}
	if err := relay.SetUpstream("not an address"); err == nil {
		t.Error("bad upstream address should error")
	}
}

func TestRelayTimelineBlackholeWindow(t *testing.T) {
	sink := newSink(t, false)
	relay, err := NewRelay(sink.addr(), Config{
		Timeline: []Event{
			{At: 40 * time.Millisecond, Dir: Both, Blackhole: On},
			{At: 140 * time.Millisecond, Dir: Both, Blackhole: Off},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	client := newTestClient(t)
	raddr, _ := net.ResolveUDPAddr("udp", relay.Addr())

	// Send one packet every 10ms across the whole window.
	for i := 0; i < 25; i++ {
		client.WriteToUDP([]byte{byte(i)}, raddr) //nolint:errcheck
		time.Sleep(10 * time.Millisecond)
	}
	waitFor(t, time.Second, func() bool {
		c := relay.Counters(Up)
		return c.Forwarded+c.Blackholed >= 25
	})
	c := relay.Counters(Up)
	if c.Blackholed == 0 {
		t.Error("timeline blackhole window dropped nothing")
	}
	if c.Forwarded == 0 || sink.count() == 0 {
		t.Error("nothing delivered outside the blackhole window")
	}
	// The final packets (sent well after the window) must have arrived.
	got := sink.snapshot()
	if len(got) == 0 || got[len(got)-1][0] != 24 {
		t.Errorf("last packet after window not delivered (got %d pkts)", len(got))
	}
}

// A timeline event at 0 is in force when NewRelay returns: the first
// packets meet it, whenever the timeline goroutine happens to run.
func TestRelayTimelineAtZeroHoldsFromTheStart(t *testing.T) {
	sink := newSink(t, false)
	relay, err := NewRelay(sink.addr(), Config{
		Timeline: []Event{
			{At: 0, Dir: Both, Blackhole: On},
			{At: time.Hour, Dir: Both, Blackhole: Off},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	client := newTestClient(t)
	raddr, _ := net.ResolveUDPAddr("udp", relay.Addr())
	for i := 0; i < 10; i++ {
		client.WriteToUDP([]byte{byte(i)}, raddr) //nolint:errcheck
	}
	waitFor(t, time.Second, func() bool { return relay.Counters(Up).Received >= 10 })
	if c := relay.Counters(Up); c.Blackholed != 10 || sink.count() != 0 {
		t.Fatalf("blackholed %d of 10 packets sent at once, %d delivered; want all blackholed", c.Blackholed, sink.count())
	}
}

func TestRelayDeterministicLossAcrossRuns(t *testing.T) {
	// Same seed + same packet sequence → same drop pattern, run to run.
	pattern := func(seed int64) []bool {
		sink := newSink(t, false)
		relay, err := NewRelay(sink.addr(), Config{Seed: seed, Up: DirConfig{Loss: 0.4}})
		if err != nil {
			t.Fatal(err)
		}
		defer relay.Close()
		client := newTestClient(t)
		raddr, _ := net.ResolveUDPAddr("udp", relay.Addr())
		const n = 60
		for i := 0; i < n; i++ {
			client.WriteToUDP([]byte{byte(i)}, raddr) //nolint:errcheck
			// Pace so loopback never reorders the relay's receive sequence.
			time.Sleep(time.Millisecond)
		}
		waitFor(t, 2*time.Second, func() bool { return relay.Counters(Up).Received >= n })
		waitFor(t, time.Second, func() bool {
			return int64(sink.count()) >= relay.Counters(Up).Forwarded
		})
		delivered := make([]bool, n)
		for _, pkt := range sink.snapshot() {
			delivered[pkt[0]] = true
		}
		return delivered
	}
	a := pattern(1234)
	b := pattern(1234)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d: delivery differs across identical seeded runs", i)
		}
	}
}

func TestRelayCloseIdempotent(t *testing.T) {
	sink := newSink(t, false)
	relay, err := NewRelay(sink.addr(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if relay.Addr() == "" {
		t.Error("empty relay addr")
	}
	if err := relay.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := relay.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := NewRelay("not an address", Config{}); err == nil {
		t.Error("bad upstream should fail")
	}
}
