package rpc_test

import (
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/obs"
	"marnet/internal/phy"
	"marnet/internal/rpc"
)

// ackRig is one client and one server on a 1 Gb/s link with 20 µs each way
// and a 10 µs modelled service — TestServerAnswersAtArrivalRate's rig.
func ackRig(t *testing.T) (*marsim.Scenario, *rpc.Client, *marsim.Endpoint) {
	t.Helper()
	s := marsim.NewScenario("acks", 1)
	link := phy.Profile{Name: "fat", Up: 1e9, Down: 1e9, OneWay: 20 * time.Microsecond}
	key := []byte("0123456789abcdef")
	resp := make([]byte, 64)
	ep := s.Net.NewEndpoint("server", link)
	srv, err := rpc.NewServer("sim", key, func(uint8, []byte) []byte { return resp },
		rpc.WithPacketConn(ep), rpc.WithClock(s.Clock), rpc.WithWorkers(8),
		rpc.WithServiceModel(func(uint8, []byte) time.Duration { return 10 * time.Microsecond }))
	if err != nil {
		t.Fatal(err)
	}
	s.Defer(func() { srv.Close() }) //nolint:errcheck // teardown
	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Key: key, Clock: s.Clock, Dialer: s.Net.NewHost("mobile", link).Dialer(ep), Seed: 2,
		RequestRate: 1e9, StartBudget: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Defer(func() { cl.Close() }) //nolint:errcheck // teardown
	return s, cl, ep
}

// sentDatagrams reads the trace's records: when each datagram was handed to
// the network, by size, split into those addressed to the server and the
// rest. The session's keepalive (a bare sealed header each way every
// 250 ms) is no part of a call and is left out.
func sentDatagrams(trace *marsim.Trace, server string) (toServer, fromServer map[int][]time.Duration) {
	toServer, fromServer = map[int][]time.Duration{}, map[int][]time.Duration{}
	trace.Events(func(e obs.Event) bool {
		size := int(e.B)
		if e.Kind != obs.EvDgramTx || size == heartbeat {
			return true
		}
		into := fromServer
		if _, dst := trace.Ends(e); dst == server {
			into = toServer
		}
		into[size] = append(into[size], e.At.Truncate(time.Microsecond)) // the trace's resolution
		return true
	})
	return toServer, fromServer
}

const (
	heartbeat = 26 + 28      // header, nonce and tag
	pureAck   = 26 + 25 + 28 // header, one-range block, nonce and tag
)

func datagrams(by map[int][]time.Duration) int {
	n := 0
	for _, at := range by {
		n += len(at)
	}
	return n
}

// TestCallIsTwoDatagrams: a call is a request and a response. With eight
// calls in flight the response carries the request's acknowledgement and
// the next request the response's, so a virtual second of them costs two
// datagrams a call (it was four: each data frame's own ack). At 30 calls a
// second nothing goes the client's way to ride on, so it is three: the
// client's ack of the response leaves alone, SRTT/4 after the response
// arrived, to the microsecond.
func TestCallIsTwoDatagrams(t *testing.T) {
	req := make([]byte, 600)

	t.Run("closed loop of 8", func(t *testing.T) {
		s, cl, ep := ackRig(t)
		completed, failed := 0, 0
		var issue func()
		issue = func() {
			cl.CallAsync(1, req, core.PrioHighest, 75*time.Millisecond, func(_ []byte, err error) {
				if err != nil {
					failed++
				} else {
					completed++
				}
				if s.Sim.Now() < time.Second {
					issue()
				}
			})
		}
		s.At(0, func() {
			for i := 0; i < 8; i++ {
				issue()
			}
		})
		if err := s.Run(time.Second + 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		up, down := sentDatagrams(s.Trace, ep.UDPAddr().String())
		perCall := float64(datagrams(up)+datagrams(down)) / float64(completed)
		t.Logf("%d calls, %d + %d datagrams: %.3f a call; %d + %d of them pure acks",
			completed, datagrams(up), datagrams(down), perCall, len(up[pureAck]), len(down[pureAck]))
		if failed != 0 || completed < 20000 {
			t.Fatalf("%d calls completed, %d failed", completed, failed)
		}
		if perCall > 2.05 {
			t.Errorf("%.3f datagrams a call, want at most 2.05", perCall)
		}
	})

	t.Run("30 calls a second", func(t *testing.T) {
		s, cl, ep := ackRig(t)
		const calls = 30
		var answered, held []time.Duration // when each response arrived, and SRTT/4 as of then
		for i := 0; i < calls; i++ {
			s.At(time.Duration(i)*time.Second/calls, func() {
				cl.CallAsync(1, req, core.PrioHighest, 75*time.Millisecond, func(_ []byte, err error) {
					if err != nil {
						t.Error(err)
					}
					answered, held = append(answered, s.Sim.Now()), append(held, cl.Conn().SRTT()/4)
				})
			})
		}
		if err := s.Run(time.Second + 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		up, down := sentDatagrams(s.Trace, ep.UDPAddr().String())
		perCall := float64(datagrams(up)+datagrams(down)) / calls
		if len(answered) != calls || perCall > 3.05 {
			t.Fatalf("%d of %d calls answered at %.3f datagrams a call, want all at no more than 3.05", len(answered), calls, perCall)
		}
		acks := up[pureAck]
		if len(acks) != calls {
			t.Fatalf("the client sent %d pure acks for %d responses, want one each", len(acks), calls)
		}
		for i, at := range acks {
			if off := at - answered[i].Truncate(time.Microsecond) - held[i]; off < -time.Microsecond || off > time.Microsecond {
				t.Errorf("call %d: the ack left %v after the response, want SRTT/4 = %v within a microsecond", i, at-answered[i], held[i])
			}
		}
	})
}
