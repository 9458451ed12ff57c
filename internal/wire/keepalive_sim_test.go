package wire_test

// The keepalive suite runs on the simulated network and virtual clock:
// the identical Conn code that runs over kernel UDP sockets in the rest
// of the wire tests, but with dead-peer detection timed in exact virtual
// milliseconds and zero wall-clock sleeps. These migrate (and tighten)
// the former wall-clock keepalive tests.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/phy"
	"marnet/internal/wire"
)

// lossless is a jitter-free, loss-free radio for exact-timing assertions.
var lossless = phy.Profile{Name: "lossless", Up: 10e6, Down: 10e6, OneWay: 5 * time.Millisecond}

func TestKeepaliveDetectsDeadPeerVirtual(t *testing.T) {
	s := marsim.NewScenario("keepalive-dead", 3)
	serverEp := s.Net.NewEndpoint("server", lossless)
	server, err := wire.ListenVia(serverEp, wire.Config{Clock: s.Clock})
	if err != nil {
		t.Fatal(err)
	}
	const interval = 50 * time.Millisecond
	type change struct {
		state wire.State
		at    time.Duration
	}
	var changes []change
	clientEp := s.Net.NewEndpoint("client", lossless)
	client, err := wire.DialVia(clientEp, serverEp.UDPAddr(), wire.Config{
		Streams:       []wire.StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}},
		Keepalive:     interval,
		Clock:         s.Clock,
		OnStateChange: func(st wire.State) { changes = append(changes, change{st, s.Sim.Now()}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Send(1, []byte("hello")) //nolint:errcheck

	// Establish liveness, then kill the server: the path goes silent.
	const killAt = 100 * time.Millisecond
	s.At(killAt, func() {
		if client.State() != wire.StateActive {
			t.Errorf("state = %v before outage", client.State())
		}
		server.Close()
	})
	s.Defer(func() { client.Close() })
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}

	var deadAt time.Duration
	for _, ch := range changes {
		if ch.state == wire.StateDead {
			deadAt = ch.at
			break
		}
	}
	if deadAt == 0 {
		t.Fatal("dead peer never detected")
	}
	// The threshold is three probe intervals of silence, detected
	// at the next probe tick: on the virtual clock, detection lands in
	// (3, 4] intervals after the last pong — no scheduling slack needed.
	took := deadAt - killAt
	if took < 3*interval || took > 4*interval+10*time.Millisecond {
		t.Errorf("detection took %v after kill, want within (%v, %v]", took, 3*interval, 4*interval)
	}
}

func TestKeepalivePingsKeepIdleConnectionAliveVirtual(t *testing.T) {
	// A peer that answers pings keeps the connection Active through a long
	// app-level silence (no false positives) — ten probe intervals of idle
	// virtual time, zero wall sleeps.
	s := marsim.NewScenario("keepalive-idle", 4)
	serverEp := s.Net.NewEndpoint("server", lossless)
	server, err := wire.ListenVia(serverEp, wire.Config{Clock: s.Clock})
	if err != nil {
		t.Fatal(err)
	}
	clientEp := s.Net.NewEndpoint("client", lossless)
	client, err := wire.DialVia(clientEp, serverEp.UDPAddr(), wire.Config{
		Keepalive: 40 * time.Millisecond,
		Clock:     s.Clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.At(400*time.Millisecond, func() {
		if client.State() != wire.StateActive {
			t.Errorf("state = %v after idle period with live peer", client.State())
		}
	})
	s.Defer(func() { server.Close() })
	s.Defer(func() { client.Close() })
	if err := s.Run(450 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestSimDeliveryInvariants(t *testing.T) {
	// The per-stream sequence invariants on the simulated network: on a
	// loss-free FIFO path delivery is strictly monotonic and nothing is
	// retransmitted (exact on the virtual clock; on wall-clock loopback a
	// late ack lets the sweep fire); on a lossy path retransmission
	// recovers every message exactly once (no duplicates).
	cases := []struct {
		name   string
		loss   float64
		strict bool
	}{
		{"lossless-strict", 0, true},
		{"lossy-exactly-once", 0.05, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := marsim.NewScenario("delivery-"+tc.name, 11)
			prof := lossless
			prof.Loss = tc.loss
			serverEp := s.Net.NewEndpoint("server", prof)
			checker := NewSeqChecker(tc.strict)
			server, err := wire.ListenVia(serverEp, wire.Config{
				Clock:     s.Clock,
				OnMessage: checker.Wrap(nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			clientEp := s.Net.NewEndpoint("client", prof)
			client, err := wire.DialVia(clientEp, serverEp.UDPAddr(), wire.Config{
				Streams:     []wire.StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 2e6}},
				StartBudget: 5e6,
				Clock:       s.Clock,
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 50
			for i := 0; i < n; i++ {
				if _, err := client.Send(1, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			var retx int64
			s.Defer(func() { server.Close() })
			s.Defer(func() {
				retx = client.Stats(1).Retx
				client.Close()
			})
			if err := s.Run(3 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := checker.Err(); err != nil {
				t.Error(err)
			}
			if lossy := tc.loss > 0; lossy != (retx > 0) {
				t.Errorf("retransmits = %d on a link with loss %v", retx, tc.loss)
			}
			if got := checker.Delivered(1); got != n {
				t.Errorf("delivered %d/%d distinct seqs", got, n)
			}
		})
	}
}

// SeqChecker is the per-stream delivery invariant: no message is ever
// delivered twice, and with Strict set (loss-free paths, where no
// retransmission can overtake newer data) messages arrive in the order
// they were sent. A message is known by the index its sender writes into
// the payload's first byte, in send order.
type SeqChecker struct {
	Strict bool
	seen   map[uint16]map[int64]bool
	last   map[uint16]int64
	errs   []string
}

// NewSeqChecker builds a checker; wrap the stack's OnMessage with Wrap.
func NewSeqChecker(strict bool) *SeqChecker {
	return &SeqChecker{
		Strict: strict,
		seen:   make(map[uint16]map[int64]bool),
		last:   make(map[uint16]int64),
	}
}

// Wrap interposes the checker before next (next may be nil).
func (sc *SeqChecker) Wrap(next func(wire.Message)) func(wire.Message) {
	return func(m wire.Message) {
		seq := int64(m.Payload[0])
		if s := sc.seen[m.Stream]; s == nil {
			sc.seen[m.Stream] = map[int64]bool{seq: true}
			sc.last[m.Stream] = seq
		} else if s[seq] {
			sc.errs = append(sc.errs, fmt.Sprintf("stream %d seq %d delivered twice", m.Stream, seq))
		} else {
			s[seq] = true
			if sc.Strict && seq <= sc.last[m.Stream] {
				sc.errs = append(sc.errs, fmt.Sprintf("stream %d seq %d after %d", m.Stream, seq, sc.last[m.Stream]))
			}
			if seq > sc.last[m.Stream] {
				sc.last[m.Stream] = seq
			}
		}
		if next != nil {
			next(m)
		}
	}
}

// Err reports every violation observed, or nil.
func (sc *SeqChecker) Err() error {
	if len(sc.errs) == 0 {
		return nil
	}
	return fmt.Errorf("seq invariant: %d violations, first: %s", len(sc.errs), sc.errs[0])
}

// Delivered reports how many distinct messages arrived on stream id.
func (sc *SeqChecker) Delivered(stream uint16) int { return len(sc.seen[stream]) }

// TestRebindDeliversAtMostOnce: through a downlink-only outage the
// client hears nothing and re-binds every keepaliveMiss intervals, while
// every frame it sends still reaches the server conn behind the socket it
// left on, and that conn's acks die. Each fresh socket meets a new server
// conn with an empty duplicate filter, so a frame the conn re-sent after a
// re-bind would be delivered twice: across all the Mux's conns each frame
// arrives exactly once. The conn's state flips once each way, and after
// the heal the echoes of the new server conn, from its own sequence space,
// reach the client's fresh receive windows.
func TestRebindDeliversAtMostOnce(t *testing.T) {
	s := marsim.NewScenario("rebind-at-most-once", 5)
	serverEp := s.Net.NewEndpoint("server", lossless)
	checker := NewSeqChecker(false) // shared by every server conn
	mux, err := wire.ListenMuxVia(serverEp, func(*net.UDPAddr) wire.Config {
		return wire.Config{
			Streams: []wire.StreamSpec{{ID: 2, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}},
			OnMessage: checker.Wrap(func(m wire.Message) {
				m.Conn.Send(2, m.Payload) //nolint:errcheck
			}),
		}
	}, wire.WithMuxClock(s.Clock))
	if err != nil {
		t.Fatal(err)
	}
	host := s.Net.NewHost("mobile", lossless)
	var changes []wire.State
	echoed := map[byte]bool{}
	client, err := host.Dialer(serverEp)(wire.Config{
		Streams:       []wire.StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6, Deadline: 2 * time.Second}},
		Keepalive:     50 * time.Millisecond,
		Clock:         s.Clock,
		OnMessage:     func(m wire.Message) { echoed[m.Payload[0]] = true },
		OnStateChange: func(st wire.State) { changes = append(changes, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	const frames, period = 20, 50 * time.Millisecond
	for i := range frames {
		s.At(time.Duration(i)*period, func() { client.Send(1, []byte{byte(i)}) }) //nolint:errcheck
	}
	const partitionAt, healAt = 200 * time.Millisecond, 700 * time.Millisecond
	serverUp, _ := serverEp.Links() // the server's uplink carries the client's downlink
	s.At(partitionAt, func() { serverUp.SetLoss(1) })
	s.At(healAt, func() { serverUp.SetLoss(0) })
	var reconnects int64
	s.Defer(func() { mux.Close() })
	s.Defer(func() {
		reconnects = client.ReconnectCount()
		client.Close()
	})
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := checker.Err(); err != nil {
		t.Error(err)
	}
	if got := checker.Delivered(1); got != frames {
		t.Errorf("delivered %d distinct frames, want %d", got, frames)
	}
	if reconnects < 2 {
		t.Errorf("%d re-binds during a %v outage, want several", reconnects, healAt-partitionAt)
	}
	if !echoed[frames-1] {
		t.Errorf("the echo of frame %d, sent after the heal, never reached the client", frames-1)
	}
	if fmt.Sprint(changes) != "[dead active closed]" {
		t.Errorf("state changes %v, want one dead, one active, closed", changes)
	}
}
