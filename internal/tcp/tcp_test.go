package tcp

import (
	"slices"
	"testing"
	"time"

	"marnet/internal/simnet"
	"marnet/internal/trace"
)

// duplexTopology builds client<->server over symmetric links and returns
// the pieces needed to wire flows.
type topo struct {
	sim                  *simnet.Sim
	clientMux, serverMux *simnet.Demux
	toServer, toClient   *simnet.Link
}

func newTopo(t *testing.T, rate float64, delay time.Duration, opts ...simnet.LinkOption) *topo {
	t.Helper()
	sim := simnet.New(11)
	cm, sm := simnet.NewDemux(), simnet.NewDemux()
	return &topo{
		sim:       sim,
		clientMux: cm,
		serverMux: sm,
		toServer:  simnet.NewLink(sim, rate, delay, sm, opts...),
		toClient:  simnet.NewLink(sim, rate, delay, cm, opts...),
	}
}

// offered counts the packets handed to l: serialized or dropped at its queue.
func offered(l *simnet.Link) int64 {
	st := l.Stats()
	return st.SentPackets + st.QueueDrops
}

func TestTransferCompletesLossless(t *testing.T) {
	tp := newTopo(t, 10e6, 10*time.Millisecond)
	f := NewFlow(tp.sim, FlowConfig{
		SenderAddr: 1, ReceiverAddr: 2, FlowID: 1,
		Forward: tp.toServer, Reverse: tp.toClient,
		SenderDemux: tp.clientMux, ReceiverDemux: tp.serverMux,
		LimitBytes: 1 << 20, // 1 MiB
	})
	done := false
	f.Sender.Done = func() { done = true }
	f.Start()
	if err := tp.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || !f.Sender.Completed() {
		t.Fatal("transfer did not complete")
	}
	if got := f.Receiver.rcvNxt; got != (1<<20+MSS-1)/MSS {
		t.Errorf("received %d segments, want %d", got, (1<<20+MSS-1)/MSS)
	}
	if n := offered(tp.toServer); n != (1<<20+MSS-1)/MSS {
		t.Errorf("lossless transfer sent %d data segments, want each once", n)
	}
	// 1 MiB at 10 Mb/s with 20 ms RTT should finish within a few seconds.
	if tp.sim.Now() > 5*time.Second {
		t.Errorf("transfer took %v", tp.sim.Now())
	}
}

func TestTransferCompletesWithLoss(t *testing.T) {
	tp := newTopo(t, 10e6, 10*time.Millisecond, simnet.WithLoss(0.02))
	f := NewFlow(tp.sim, FlowConfig{
		SenderAddr: 1, ReceiverAddr: 2, FlowID: 1,
		Forward: tp.toServer, Reverse: tp.toClient,
		SenderDemux: tp.clientMux, ReceiverDemux: tp.serverMux,
		LimitBytes: 512 << 10,
	})
	f.Start()
	if err := tp.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !f.Sender.Completed() {
		t.Fatal("transfer did not complete under loss")
	}
	if offered(tp.toServer) <= (512<<10+MSS-1)/MSS {
		t.Error("expected retransmissions under 2% loss")
	}
}

func TestSlowStartDoubling(t *testing.T) {
	tp := newTopo(t, 100e6, 25*time.Millisecond)
	f := NewFlow(tp.sim, FlowConfig{
		SenderAddr: 1, ReceiverAddr: 2, FlowID: 1,
		Forward: tp.toServer, Reverse: tp.toClient,
		SenderDemux: tp.clientMux, ReceiverDemux: tp.serverMux,
		TraceCwnd: true,
	})
	f.Start()
	if err := tp.sim.RunUntil(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// ~6 RTTs of slow start from IW=2: cwnd should have grown well past 32
	// with no losses on a fat link.
	if f.Sender.Cwnd() < 32 {
		t.Errorf("cwnd = %v after 300ms slow start, want >= 32", f.Sender.Cwnd())
	}
	vals := f.Sender.CwndTrace.Values
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("unexpected loss event: cwnd fell from %v to %v", vals[i-1], vals[i])
		}
	}
}

func TestFastRetransmitOnIsolatedLoss(t *testing.T) {
	// Drop exactly one data packet via a filtering handler, verify fast
	// retransmit (not timeout) repairs it.
	sim := simnet.New(3)
	cm, sm := simnet.NewDemux(), simnet.NewDemux()
	var dropOnce bool
	toServerLink := simnet.NewLink(sim, 10e6, 10*time.Millisecond, sm)
	filter := simnet.HandlerFunc(func(pkt *simnet.Packet) {
		if !dropOnce && pkt.Kind == KindData && pkt.Seq == 20 {
			dropOnce = true
			return
		}
		toServerLink.Handle(pkt)
	})
	toClient := simnet.NewLink(sim, 10e6, 10*time.Millisecond, cm)
	f := NewFlow(sim, FlowConfig{
		SenderAddr: 1, ReceiverAddr: 2, FlowID: 1,
		Forward: filter, Reverse: toClient,
		SenderDemux: cm, ReceiverDemux: sm,
		LimitBytes: 256 << 10,
	})
	f.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !f.Sender.Completed() {
		t.Fatal("did not complete")
	}
	// The filter ate the first copy of segment 20 and the link carried every
	// segment once: only 20 went again, repaired by three dup ACKs where an
	// RTO would have resent the whole window behind it (go-back-N).
	if n := offered(toServerLink); n != (256<<10+MSS-1)/MSS {
		t.Errorf("the link carried %d data segments, want each once", n)
	}
}

func TestTimeoutRecoversFromAckPathBlackout(t *testing.T) {
	// Block the entire forward path briefly at the start: initial window is
	// fully lost, only RTO can recover (no dup ACKs can arrive).
	sim := simnet.New(3)
	cm, sm := simnet.NewDemux(), simnet.NewDemux()
	toServer := simnet.NewLink(sim, 10e6, 10*time.Millisecond, sm, simnet.WithLoss(1.0))
	toClient := simnet.NewLink(sim, 10e6, 10*time.Millisecond, cm)
	f := NewFlow(sim, FlowConfig{
		SenderAddr: 1, ReceiverAddr: 2, FlowID: 1,
		Forward: toServer, Reverse: toClient,
		SenderDemux: cm, ReceiverDemux: sm,
		LimitBytes: 64 << 10, TraceCwnd: true,
	})
	sim.Schedule(1500*time.Millisecond, func() { toServer.SetLoss(0) })
	f.Start()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !f.Sender.Completed() {
		t.Fatal("did not complete after blackout")
	}
	// An RTO, and only an RTO, collapses the window to one segment.
	if slices.Min(f.Sender.CwndTrace.Values) != 1 {
		t.Error("expected at least one RTO")
	}
}

func TestCwndSawtoothUnderPeriodicLoss(t *testing.T) {
	tp := newTopo(t, 20e6, 20*time.Millisecond, simnet.WithLoss(0.005))
	f := NewFlow(tp.sim, FlowConfig{
		SenderAddr: 1, ReceiverAddr: 2, FlowID: 1,
		Forward: tp.toServer, Reverse: tp.toClient,
		SenderDemux: tp.clientMux, ReceiverDemux: tp.serverMux,
		TraceCwnd: true, GoodputBin: 100 * time.Millisecond,
	})
	f.Start()
	if err := tp.sim.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The cwnd trace must both rise and fall (sawtooth).
	ups, downs := 0, 0
	vals := f.Sender.CwndTrace.Values
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1] {
			ups++
		}
		if vals[i] < vals[i-1] {
			downs++
		}
	}
	if ups == 0 || downs == 0 {
		t.Errorf("no sawtooth: ups=%d downs=%d", ups, downs)
	}
	if rate := f.Receiver.Goodput.Series("goodput").Window(0, time.Hour); rate < 1e6 {
		t.Errorf("goodput %v too low", rate)
	}
}

func TestGoodputApproachesBottleneck(t *testing.T) {
	tp := newTopo(t, 8e6, 15*time.Millisecond)
	f := NewFlow(tp.sim, FlowConfig{
		SenderAddr: 1, ReceiverAddr: 2, FlowID: 1,
		Forward: tp.toServer, Reverse: tp.toClient,
		SenderDemux: tp.clientMux, ReceiverDemux: tp.serverMux,
		GoodputBin: time.Second,
	})
	f.Start()
	if err := tp.sim.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Steady-state goodput (after slow start) should be near 8 Mb/s of
	// payload (the header overhead is ~2.7%).
	got := f.Receiver.Goodput.Series("g").Window(3*time.Second, 10*time.Second)
	if got < 6.5e6 || got > 8e6 {
		t.Errorf("steady goodput = %v, want ~7.5e6", got)
	}
}

func TestReceiverReordersOutOfOrderData(t *testing.T) {
	sim := simnet.New(1)
	var acks []int64
	out := simnet.HandlerFunc(func(pkt *simnet.Packet) {
		acks = append(acks, pkt.Payload.(ackInfo).cum)
	})
	r := NewReceiver(sim, 2, 1, 1, out)
	r.Goodput = trace.NewThroughput(time.Second)
	mk := func(seq int64) *simnet.Packet {
		return &simnet.Packet{Kind: KindData, Seq: seq, Size: MSS + HeaderSize}
	}
	r.Handle(mk(1)) // out of order
	r.Handle(mk(2)) // out of order
	r.Handle(mk(0)) // fills the hole -> delivers 0,1,2
	r.Handle(mk(0)) // duplicate
	want := []int64{0, 0, 3, 3}
	if len(acks) != len(want) {
		t.Fatalf("acks = %v, want %v", acks, want)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("acks = %v, want %v", acks, want)
		}
	}
	if r.rcvNxt != 3 {
		t.Errorf("received = %d, want 3", r.rcvNxt)
	}
}

func TestSenderIgnoresForeignPackets(t *testing.T) {
	sim := simnet.New(1)
	s := NewSender(sim, SenderConfig{Src: 1, Dst: 2, Flow: 1, Out: &simnet.Sink{}})
	s.Start()
	// A data packet and a malformed ACK must both be ignored.
	s.Handle(&simnet.Packet{Kind: KindData, Seq: 5})
	s.Handle(&simnet.Packet{Kind: KindAck, Payload: "garbage"})
	if s.Cwnd() != 2 {
		t.Errorf("cwnd changed on foreign packets: %v", s.Cwnd())
	}
}

func TestStartIsIdempotent(t *testing.T) {
	sim := simnet.New(1)
	col := simnet.NewCollector(sim)
	s := NewSender(sim, SenderConfig{Src: 1, Dst: 2, Flow: 1, Out: col, LimitBytes: 10 * MSS})
	s.Start()
	s.Start()
	if err := sim.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(col.Packets) != 2 { // initial window only, no ACKs coming
		t.Errorf("sent %d packets, want 2 (IW)", len(col.Packets))
	}
}
