package core

import (
	"testing"
	"time"

	"marnet/internal/simnet"
)

func TestFlattenPrioritiesSharesOneBand(t *testing.T) {
	s := newSession(t, 2e6, 2e6, 10*time.Millisecond)
	crit, _ := s.snd.AddStream(StreamConfig{
		Name: "crit", Class: ClassCritical, Priority: PrioHighest, Rate: 0.2e6,
	})
	bulk, _ := s.snd.AddStream(StreamConfig{
		Name: "bulk", Class: ClassFullBestEffort, Priority: PrioLowest, Rate: 1.8e6,
	})
	s.snd.FlattenPriorities()
	// With flattened priorities the allocation is registration order, so
	// the critical stream still gets funded first here — but both go to
	// band 0 and interleave FIFO.
	s.drive(crit, 50, 200, 10*time.Millisecond)
	s.drive(bulk, 50, 1200, 10*time.Millisecond)
	if err := s.sim.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.snd.Stop()
	if s.rcv.Stream(crit.ID).Delivered == 0 || s.rcv.Stream(bulk.ID).Delivered == 0 {
		t.Error("flattened sender stopped delivering")
	}
}

func TestSenderAccessors(t *testing.T) {
	s := newSession(t, 1e6, 1e6, time.Millisecond)
	st, _ := s.snd.AddStream(StreamConfig{
		Name: "x", Class: ClassCritical, Priority: PrioHighest, Rate: 1e5,
	})
	if s.snd.Controller() == nil {
		t.Error("Controller() nil")
	}
	if len(s.snd.Streams()) != 1 || s.snd.Streams()[0] != st {
		t.Error("Streams() wrong")
	}
	if st.Allocated() != 1e5 {
		t.Errorf("Allocated = %v", st.Allocated())
	}
	// Stop is idempotent.
	s.snd.Stop()
	s.snd.Stop()
	if s.snd.Submit(st, 100) {
		t.Error("Submit after Stop should be rejected")
	}
	if s.snd.Submit(st, 0) {
		t.Error("Submit of zero bytes should be rejected")
	}
}

func TestControllerAccessors(t *testing.T) {
	c := NewController(1e6)
	c.OnAck(10*time.Millisecond, 20*time.Millisecond)
	c.OnAck(20*time.Millisecond, 30*time.Millisecond)
	if c.SRTT() == 0 || c.BaseRTT() != 20*time.Millisecond {
		t.Errorf("srtt=%v base=%v", c.SRTT(), c.BaseRTT())
	}
	if c.Jitter() == 0 {
		t.Error("jitter should be nonzero after differing samples")
	}
}

func TestPathAccessorsAndRTTLess(t *testing.T) {
	a := &Path{ID: 1, Out: &simnet.Sink{}}
	b := &Path{ID: 2, Out: &simnet.Sink{}}
	// Both unmeasured: ordered by ID.
	if !rttLess(a, b) || rttLess(b, a) {
		t.Error("unmeasured tie-break by ID failed")
	}
	a.onAck(time.Second, 30*time.Millisecond)
	if a.SRTT() != 30*time.Millisecond || a.BaseRTT() != 30*time.Millisecond {
		t.Errorf("srtt=%v base=%v", a.SRTT(), a.BaseRTT())
	}
	// Measured vs unmeasured: measured wins.
	if !rttLess(a, b) {
		t.Error("measured path should be preferred")
	}
	if rttLess(b, a) {
		t.Error("unmeasured path should not be preferred")
	}
	b.onAck(time.Second, 10*time.Millisecond)
	if !rttLess(b, a) {
		t.Error("lower srtt should win")
	}
}

func TestMultipathSpreadZeroWeights(t *testing.T) {
	a := &Path{ID: 1, Out: &simnet.Sink{}}
	b := &Path{ID: 2, Out: &simnet.Sink{}}
	m := NewMultipath(a, b)
	m.Policy = PolicySpread
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		got := m.Pick(0, PrioLowest, ClassFullBestEffort, 1000)
		counts[got[0].ID]++
	}
	// Zero weights degrade to equal split.
	if counts[1] < 400 || counts[2] < 400 {
		t.Errorf("zero-weight spread unfair: %v", counts)
	}
}

func TestReceiverAckPathRouting(t *testing.T) {
	// Acks must return over the same path the data arrived on.
	sim := simnet.New(41)
	got := map[int]int{}
	mkOut := func(path int) simnet.Handler {
		return simnet.HandlerFunc(func(p *simnet.Packet) { got[path]++ })
	}
	rcv := NewReceiver(sim, ReceiverConfig{
		Local: 2, Peer: 1, FlowID: 1,
		AckPath:    map[int]simnet.Handler{1: mkOut(1), 2: mkOut(2)},
		DefaultOut: mkOut(0),
	})
	deliver := func(pathID int, seq int64) {
		rcv.Handle(&simnet.Packet{
			Kind: KindData, Size: 100,
			Payload: DataHdr{Stream: 0, Seq: seq, PathID: pathID},
		})
	}
	deliver(1, 0)
	deliver(2, 1)
	deliver(9, 2) // unknown path -> default
	if got[1] != 1 || got[2] != 1 || got[0] != 1 {
		t.Errorf("ack routing = %v", got)
	}
}

func TestReceiverTrimBoundsState(t *testing.T) {
	sim := simnet.New(1)
	rcv := NewReceiver(sim, ReceiverConfig{
		Local: 2, Peer: 1, FlowID: 1, DefaultOut: &simnet.Sink{},
	})
	for seq := int64(0); seq < 3000; seq++ {
		rcv.Handle(&simnet.Packet{
			Kind: KindData, Size: 10,
			Payload: DataHdr{Stream: 0, Seq: seq},
		})
	}
	st := rcv.Stream(0)
	if st.recv.Size() != receiverWindow {
		t.Errorf("receive window holds %d slots, want a fixed %d", st.recv.Size(), receiverWindow)
	}
	if st.Delivered != 3000 {
		t.Errorf("delivered = %d", st.Delivered)
	}
}

func TestReceiverIgnoresMalformed(t *testing.T) {
	sim := simnet.New(1)
	rcv := NewReceiver(sim, ReceiverConfig{
		Local: 2, Peer: 1, FlowID: 1, DefaultOut: &simnet.Sink{},
	})
	rcv.Handle(&simnet.Packet{Kind: KindAck})                      // wrong kind
	rcv.Handle(&simnet.Packet{Kind: KindData, Payload: "garbage"}) // bad payload
	if rcv.Acked != 0 {
		t.Error("malformed packets acked")
	}
}
