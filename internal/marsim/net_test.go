package marsim

import (
	"bytes"
	"net"
	"testing"
	"time"

	"marnet/internal/faults"
	"marnet/internal/phy"
	"marnet/internal/simnet"
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

// dropAll is a fault process that drops every packet.
type dropAll struct{}

func (dropAll) Filter(*simnet.Packet, time.Duration) simnet.Verdict {
	return simnet.Verdict{Drop: true}
}

// A datagram a link loses, filters or drops at its tail reaches no handler,
// so the link hands the record back (simnet.PayloadReleaser): a drop costs
// no allocation, and after every burst the free list holds each record
// made so far, once.
func TestLinkDropsRecycle(t *testing.T) {
	p := phy.Profile{Name: "test", Up: 10e6, Down: 10e6, OneWay: time.Millisecond}
	for _, tc := range []struct {
		name     string
		sender   func(s *Scenario) *Endpoint
		drops    func(simnet.LinkStats) int64
		perBurst int64 // uplink drops in a burst of 3
	}{
		{"loss", func(s *Scenario) *Endpoint {
			lossy := p
			lossy.Loss = 1
			return s.Net.NewEndpoint("a", lossy)
		}, func(st simnet.LinkStats) int64 { return st.LostPackets }, 3},
		{"filter", func(s *Scenario) *Endpoint {
			h := s.Net.NewHost("mobile", p)
			h.SetUplinkFilter(dropAll{})
			return h.NewEndpoint()
		}, func(st simnet.LinkStats) int64 { return st.FilterDrops }, 3},
		{"droptail", func(s *Scenario) *Endpoint {
			ep := s.Net.NewEndpoint("a", p)
			up, _ := ep.Links()
			up.Queue().(*simnet.DropTail).MaxPackets = 1 // one on the wire, one queued, one dropped
			return ep
		}, func(st simnet.LinkStats) int64 { return st.QueueDrops }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScenario("drops", 1)
			a, b := tc.sender(s), s.Net.NewEndpoint("b", p)
			b.Start(func([]byte, *net.UDPAddr, int) {})
			payload := make([]byte, 1000)
			bursts := int64(0)
			burst := func() {
				for i := 0; i < 3; i++ {
					a.WriteToUDP(payload, b.UDPAddr()) //nolint:errcheck // simulated
				}
				if err := s.Sim.Run(); err != nil {
					t.Fatal(err)
				}
				bursts++
			}
			burst()
			made := len(s.Net.free)
			if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
				t.Errorf("%.2f allocs per 3-datagram burst, want 0", allocs)
			}
			up, _ := a.Links()
			if got, want := tc.drops(up.Stats()), bursts*tc.perBurst; got != want {
				t.Errorf("uplink dropped %d, want %d", got, want)
			}
			if n := len(s.Net.free); made == 0 || n != made {
				t.Errorf("free list holds %d records, %d after the first burst", n, made)
			}
			if err := s.Net.CheckConservation(); err != nil {
				t.Error(err)
			}
		})
	}
}

// Net.put panics on a record that is already free: links that drop are a
// third terminal outcome that recycles, and a record put twice would be
// handed out to two datagrams. With every packet duplicated on the uplink
// and half of them lost on the downlink, originals and clones meet every
// terminal outcome, and each record still comes back exactly once.
func TestDatagramRecycledOnce(t *testing.T) {
	s := NewScenario("double-put", 1)
	p := phy.Profile{Name: "test", Up: 10e6, Down: 10e6, OneWay: time.Millisecond}
	half := p
	half.Loss = 0.5
	host := s.Net.NewHost("mobile", p)
	host.SetUplinkFilter(faults.NewLinkFilter(faults.DirConfig{Dup: 1}, 1))
	a, b := host.NewEndpoint(), s.Net.NewEndpoint("b", half)
	delivered := 0
	b.Start(func([]byte, *net.UDPAddr, int) { delivered++ })
	for i := 0; i < 200; i++ {
		a.WriteToUDP([]byte("twice, maybe"), b.UDPAddr()) //nolint:errcheck // simulated
	}
	if err := s.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	_, down := b.Links()
	if lost := down.Stats().LostPackets; lost == 0 || delivered == 0 || int64(delivered)+lost != 400 {
		t.Fatalf("delivered %d, lost %d on the downlink; want both, summing to 400", delivered, lost)
	}
	seen := make(map[*datagram]bool)
	for _, d := range s.Net.free {
		if seen[d] {
			t.Fatal("a record is on the free list twice")
		}
		seen[d] = true
	}
	if err := s.Net.CheckConservation(); err != nil {
		t.Error(err)
	}

	d := s.Net.get()
	s.Net.put(d)
	defer func() {
		if recover() == nil {
			t.Error("a second put of the same record did not panic")
		}
	}()
	s.Net.put(d)
}
