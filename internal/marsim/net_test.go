package marsim

import (
	"bytes"
	"net"
	"testing"
	"time"

	"marnet/internal/faults"
	"marnet/internal/phy"
)

// One datagram's whole life on the simulated network — WriteToUDP, uplink,
// route, downlink, deliver — allocates nothing in steady state: datagram,
// packet and data buffer are one recycled record, and the links schedule
// through pooled in-flight records.
func TestDatagramPathZeroAlloc(t *testing.T) {
	s, a, b := traceRig(t)
	got := 0
	b.Start(func(pkt []byte, _ *net.UDPAddr, _ int) { got += len(pkt) })
	payload := make([]byte, 1000)
	send := func() {
		for i := 0; i < 3; i++ { // three in flight at once
			a.WriteToUDP(payload, b.UDPAddr()) //nolint:errcheck // simulated
		}
		if err := s.Sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send()
	got = 0
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Errorf("WriteToUDP -> deliver: %.2f allocs per 3-datagram burst, want 0", allocs)
	}
	if want := 201 * 3 * len(payload); got != want {
		t.Errorf("delivered %d bytes, want %d", got, want)
	}
	if err := s.Net.CheckConservation(); err != nil {
		t.Error(err)
	}
	if n := len(s.Net.free); n != 3 {
		t.Errorf("free list holds %d records after bursts of 3, want 3", n)
	}
}

// A link that duplicates a packet (the faults engine's Dup) hands the two
// deliveries different buffers with the same bytes, and each record comes
// back to the free list exactly once.
func TestDuplicateDeliveryRecyclesOnce(t *testing.T) {
	s := NewScenario("dup", 1)
	p := phy.Profile{Name: "test", Up: 10e6, Down: 10e6, OneWay: time.Millisecond}
	host := s.Net.NewHost("mobile", p)
	host.SetUplinkFilter(faults.NewLinkFilter(faults.DirConfig{Dup: 1}, 1))
	a, b := host.NewEndpoint(), s.Net.NewEndpoint("b", p)
	var bufs []*byte
	var seen [][]byte
	b.Start(func(pkt []byte, _ *net.UDPAddr, _ int) {
		bufs = append(bufs, &pkt[0])
		seen = append(seen, append([]byte(nil), pkt...))
	})
	msg := []byte("one datagram, delivered twice")
	a.WriteToUDP(msg, b.UDPAddr()) //nolint:errcheck // simulated
	if err := s.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || !bytes.Equal(seen[0], msg) || !bytes.Equal(seen[1], msg) {
		t.Fatalf("deliveries = %q, want the message twice", seen)
	}
	if bufs[0] == bufs[1] {
		t.Error("both deliveries were handed the same buffer")
	}
	free := s.Net.free
	if len(free) != 2 || free[0] == free[1] {
		t.Errorf("free list = %p, want the two records once each", free)
	}
	if err := s.Net.CheckConservation(); err != nil {
		t.Error(err)
	}
	// Both records are reusable: the next two sends take them and allocate
	// no third.
	a.WriteToUDP(msg, b.UDPAddr()) //nolint:errcheck // simulated
	if err := s.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 || len(s.Net.free) != 2 {
		t.Errorf("after a second send: %d deliveries, %d free records; want 4 and 2", len(seen), len(s.Net.free))
	}
}

// The bytes handed to recv are a loan: under the race detector a callback
// that keeps the slice finds it overwritten with 0xDB the moment it
// returns, exactly as with wire's socket transports.
func TestDeliveredBufferPoisonedOnReturn(t *testing.T) {
	if !raceBuild() {
		t.Skip("receive buffers are poisoned only in race-detector builds")
	}
	s, a, b := traceRig(t)
	var kept []byte
	b.Start(func(pkt []byte, _ *net.UDPAddr, _ int) {
		if pkt[0] != 'x' {
			t.Errorf("delivered %q", pkt)
		}
		kept = pkt
	})
	a.WriteToUDP([]byte("xxxxxxxx"), b.UDPAddr()) //nolint:errcheck // simulated
	if err := s.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, 8)) {
		t.Errorf("retained slice reads %x after recv returned, want it poisoned", kept)
	}
}
