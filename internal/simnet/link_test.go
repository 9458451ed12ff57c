package simnet

import (
	"testing"
	"time"
)

func TestLinkSerializationAndDelay(t *testing.T) {
	s := New(1)
	col := NewCollector(s)
	// 1 Mb/s, 10 ms propagation: a 1250-byte packet serializes in 10 ms.
	link := NewLink(s, 1e6, 10*time.Millisecond, col)
	link.Send(&Packet{Seq: 1, Size: 1250})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Packets) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(col.Packets))
	}
	if got, want := col.Times[0], 20*time.Millisecond; got != want {
		t.Errorf("delivery at %v, want %v", got, want)
	}
}

func TestLinkBackToBackPackets(t *testing.T) {
	s := New(1)
	col := NewCollector(s)
	link := NewLink(s, 1e6, 0, col)
	for i := 0; i < 3; i++ {
		link.Send(&Packet{Seq: int64(i), Size: 1250}) // 10 ms each
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i, w := range want {
		if col.Times[i] != w {
			t.Errorf("packet %d delivered at %v, want %v", i, col.Times[i], w)
		}
	}
	st := link.Stats()
	if st.SentPackets != 3 || st.SentBytes != 3750 || st.Delivered != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkQueueDrops(t *testing.T) {
	s := New(1)
	col := NewCollector(s)
	link := NewLink(s, 1e6, 0, col, WithQueue(NewDropTail(2)))
	// First packet starts transmitting immediately (dequeued), two fill the
	// queue, the rest are dropped.
	for i := 0; i < 10; i++ {
		link.Send(&Packet{Seq: int64(i), Size: 1250})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Packets) != 3 {
		t.Errorf("delivered %d, want 3", len(col.Packets))
	}
	if got := link.Stats().QueueDrops; got != 7 {
		t.Errorf("queue drops = %d, want 7", got)
	}
}

func TestLinkLossAllAndNone(t *testing.T) {
	s := New(1)
	col := NewCollector(s)
	lossy := NewLink(s, 1e9, 0, col, WithLoss(1.0))
	for i := 0; i < 50; i++ {
		lossy.Send(&Packet{Size: 100})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Packets) != 0 {
		t.Errorf("loss=1 delivered %d packets", len(col.Packets))
	}
	if got := lossy.Stats().LostPackets; got != 50 {
		t.Errorf("lost = %d, want 50", got)
	}

	s2 := New(1)
	col2 := NewCollector(s2)
	clean := NewLink(s2, 1e9, 0, col2, WithLoss(0))
	for i := 0; i < 50; i++ {
		clean.Send(&Packet{Size: 100})
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col2.Packets) != 50 {
		t.Errorf("loss=0 delivered %d packets, want 50", len(col2.Packets))
	}
}

func TestLinkLossApproximatesProbability(t *testing.T) {
	s := New(99)
	sink := &Sink{}
	link := NewLink(s, 1e9, 0, sink, WithLoss(0.3), WithQueue(NewDropTail(0)))
	const n = 10000
	for i := 0; i < n; i++ {
		link.Send(&Packet{Size: 100})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	lost := float64(link.Stats().LostPackets) / n
	if lost < 0.27 || lost > 0.33 {
		t.Errorf("empirical loss = %v, want ~0.3", lost)
	}
}

func TestLinkJitterBounds(t *testing.T) {
	s := New(5)
	col := NewCollector(s)
	link := NewLink(s, 1e9, 10*time.Millisecond, col, WithJitter(5*time.Millisecond))
	// Send packets spaced far apart so queueing doesn't matter.
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(time.Duration(i)*time.Second, func() {
			link.Send(&Packet{Size: 100})
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, at := range col.Times {
		base := time.Duration(i) * time.Second
		lat := at - base
		if lat < 10*time.Millisecond || lat >= 15*time.Millisecond+time.Millisecond {
			t.Fatalf("packet %d latency %v outside [10ms, 15ms+ser)", i, lat)
		}
	}
}

// Each packet draws its own jitter, so packets sent closer together than
// the jitter span arrive out of send order: the link is not FIFO once
// jitter is on. Pins the behaviour a reordering-tolerant loss detector
// has to live with.
func TestLinkJitterReorders(t *testing.T) {
	s := New(5)
	col := NewCollector(s)
	link := NewLink(s, 1e9, 10*time.Millisecond, col, WithJitter(5*time.Millisecond))
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(time.Duration(i)*time.Millisecond, func() {
			link.Send(&Packet{Seq: int64(i), Size: 100})
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Packets) != 100 {
		t.Fatalf("delivered %d packets, want 100", len(col.Packets))
	}
	overtaken := 0
	for i := 1; i < len(col.Packets); i++ {
		if col.Packets[i].Seq < col.Packets[i-1].Seq {
			overtaken++
		}
	}
	if overtaken == 0 {
		t.Fatal("100 packets 1 ms apart on a link with 5 ms of jitter arrived in send order")
	}
	t.Logf("%d of 100 arrivals overtook the packet sent before them", overtaken)
}

func TestLinkRateChange(t *testing.T) {
	s := New(1)
	col := NewCollector(s)
	link := NewLink(s, 1e6, 0, col)
	link.Send(&Packet{Size: 1250}) // 10 ms at 1 Mb/s
	s.Schedule(5*time.Millisecond, func() { link.SetRate(2e6) })
	s.Schedule(11*time.Millisecond, func() { link.Send(&Packet{Size: 1250}) }) // 5 ms at 2 Mb/s
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if col.Times[0] != 10*time.Millisecond {
		t.Errorf("first delivery %v, want 10ms", col.Times[0])
	}
	if col.Times[1] != 16*time.Millisecond {
		t.Errorf("second delivery %v, want 16ms", col.Times[1])
	}
}

// A Demux in front of a link routes by destination as a router does: the
// ingress Demux forwards both known destinations onto one link, whose far
// end is a second Demux that delivers each to its endpoint.
func TestRouterAndDemux(t *testing.T) {
	s := New(1)
	demux := NewDemux()
	colA := NewCollector(s)
	colB := NewCollector(s)
	demux.Register(Addr(1), colA)
	demux.Register(Addr(2), colB)
	router := NewDemux()
	link := NewLink(s, 1e9, time.Millisecond, demux)
	router.Register(Addr(1), link)
	router.Register(Addr(2), link)

	router.Handle(&Packet{Dst: 1, Size: 10})
	router.Handle(&Packet{Dst: 2, Size: 10})
	router.Handle(&Packet{Dst: 3, Size: 10}) // no route
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The unrouted packet never reached the link.
	if len(colA.Packets) != 1 || len(colB.Packets) != 1 || link.Stats().SentPackets != 2 {
		t.Errorf("colA=%d colB=%d link sent %d, want 1, 1 and 2", len(colA.Packets), len(colB.Packets), link.Stats().SentPackets)
	}
}

func TestDemuxFallbackAndDrop(t *testing.T) {
	d := NewDemux()
	col := NewCollector(nil)
	d.Handle(&Packet{Dst: 9, Seq: 1}) // no handler yet: dropped
	d.Register(9, col)
	d.Handle(&Packet{Dst: 9, Seq: 2})
	if len(col.Packets) != 1 || col.Packets[0].Seq != 2 {
		t.Errorf("handler got %d packets, want only the one sent after it registered", len(col.Packets))
	}
}

func TestNewPathChainsHops(t *testing.T) {
	s := New(1)
	col := NewCollector(s)
	// Two hops: 1 Mb/s + 10 ms, then 2 Mb/s + 5 ms.
	ingress := NewPath(s, col,
		Hop(1e6, 10*time.Millisecond),
		Hop(2e6, 5*time.Millisecond),
	)
	ingress.Send(&Packet{Size: 1250}) // 10ms ser + 10ms prop + 5ms ser + 5ms prop = 30ms
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Packets) != 1 {
		t.Fatal("packet not delivered")
	}
	if got, want := col.Times[0], 30*time.Millisecond; got != want {
		t.Errorf("delivery at %v, want %v", got, want)
	}
}

func TestDropTailByteLimit(t *testing.T) {
	q := &DropTail{MaxBytes: 2000}
	ok1 := q.Enqueue(&Packet{Size: 1500}, 0)
	ok2 := q.Enqueue(&Packet{Size: 600}, 0) // would exceed 2000
	ok3 := q.Enqueue(&Packet{Size: 500}, 0)
	if !ok1 || ok2 || !ok3 {
		t.Errorf("enqueue results = %v %v %v, want true false true", ok1, ok2, ok3)
	}
	if q.Bytes() != 2000 || q.Len() != 2 {
		t.Errorf("bytes=%d len=%d", q.Bytes(), q.Len())
	}
}

func TestDropTailFIFOAndCompaction(t *testing.T) {
	q := NewDropTail(0)
	const n = 500
	for i := 0; i < n; i++ {
		q.Enqueue(&Packet{Seq: int64(i), Size: 1}, 0)
	}
	for i := 0; i < n; i++ {
		pkt := q.Dequeue(0)
		if pkt == nil || pkt.Seq != int64(i) {
			t.Fatalf("dequeue %d: got %+v", i, pkt)
		}
	}
	if q.Dequeue(0) != nil {
		t.Error("empty queue should return nil")
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Errorf("len=%d bytes=%d after drain", q.Len(), q.Bytes())
	}
}

func TestCollectorAndSink(t *testing.T) {
	c := NewCollector(nil)
	c.Handle(&Packet{Size: 7})
	if len(c.Packets) != 1 || c.Packets[0].Size != 7 || c.Times != nil {
		t.Errorf("collector packets=%d times=%v, want one 7-byte packet and no clock", len(c.Packets), c.Times)
	}
	var sk Sink
	sk.Handle(&Packet{}) // discarded without a trace
}

// Forwarding a packet across a bare link allocates nothing in steady state:
// the in-flight record is recycled and both of the link's callbacks (arrival,
// serializer re-arm) are bound once.
func TestLinkForwardingZeroAlloc(t *testing.T) {
	sim := New(1)
	delivered := int64(0)
	sink := HandlerFunc(func(*Packet) { delivered++ })
	l := NewLink(sim, 100e6, time.Millisecond, sink, WithJitter(time.Millisecond))
	pkts := []*Packet{{Size: 1000}, {Size: 200}, {Size: 1200}}
	burst := func() {
		for _, p := range pkts { // three in flight at once
			l.Send(p)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(500, burst); allocs != 0 {
		t.Errorf("Link.Send -> arrival: %.2f allocs per 3-packet burst, want 0", allocs)
	}
	if st := l.Stats(); st.Delivered != st.SentPackets || delivered != st.Delivered {
		t.Errorf("link %+v, sink saw %d", st, delivered)
	}
}

type dupAll struct{}

func (dupAll) Filter(*Packet, time.Duration) Verdict { return Verdict{Duplicate: true} }

// cloneCounter is a payload that asks not to be shared between deliveries.
type cloneCounter struct{ clones int }

func (c *cloneCounter) ClonePayload() any {
	c.clones++
	return &cloneCounter{}
}

// A duplicated packet is a second Packet; its payload is the original's
// unless the payload is a PayloadCloner, in which case the copy gets a
// payload of its own — what lets a receiver recycle each delivery's payload
// without freeing one twice.
func TestLinkDuplicateClonesPayload(t *testing.T) {
	sim := New(1)
	col := NewCollector(sim)
	l := NewLink(sim, 100e6, time.Millisecond, col)
	l.SetFilter(dupAll{})

	orig := &cloneCounter{}
	shared := &struct{ n int }{}
	l.Send(&Packet{Seq: 1, Size: 100, Payload: orig})
	l.Send(&Packet{Seq: 2, Size: 100, Payload: shared})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.Packets) != 4 || l.Stats().FilterDups != 2 {
		t.Fatalf("delivered %d packets with %d duplicates, want 4 and 2", len(col.Packets), l.Stats().FilterDups)
	}
	a, b, c, d := col.Packets[0], col.Packets[1], col.Packets[2], col.Packets[3]
	if a == b || a.Seq != 1 || b.Seq != 1 || a.Size != b.Size {
		t.Errorf("duplicate of packet 1 is not a distinct, identical packet: %+v %+v", a, b)
	}
	if a.Payload != any(orig) || b.Payload == a.Payload || orig.clones != 1 {
		t.Errorf("cloner payload: original %p, copy %p, %d clones; want distinct payloads and one clone", a.Payload, b.Payload, orig.clones)
	}
	if c.Payload != any(shared) || d.Payload != any(shared) {
		t.Errorf("plain payload not shared by the duplicate: %p %p", c.Payload, d.Payload)
	}
}

type dropAll struct{}

func (dropAll) Filter(*Packet, time.Duration) Verdict { return Verdict{Drop: true} }

// releaseCounter is a payload its owner recycles.
type releaseCounter struct{ releases int }

func (r *releaseCounter) ReleasePayload() { r.releases++ }

// A packet that ends on the link — lost, filtered, or refused by a full
// queue — reaches no handler, so a PayloadReleaser payload is handed back
// exactly once; a delivered one is left to the handler.
func TestLinkReleasesDroppedPayload(t *testing.T) {
	sim := New(1)
	col := NewCollector(sim)
	lossy := NewLink(sim, 100e6, time.Millisecond, col, WithLoss(1))
	filtered := NewLink(sim, 100e6, time.Millisecond, col)
	filtered.SetFilter(dropAll{})
	full := NewLink(sim, 1e3, time.Millisecond, col, WithQueue(NewDropTail(1)))

	lost, dropped := &releaseCounter{}, &releaseCounter{}
	onWire, queued, refused := &releaseCounter{}, &releaseCounter{}, &releaseCounter{}
	lossy.Send(&Packet{Size: 100, Payload: lost})
	filtered.Send(&Packet{Size: 100, Payload: dropped})
	full.Send(&Packet{Size: 100, Payload: onWire}) // the serializer takes it
	full.Send(&Packet{Size: 100, Payload: queued}) // fills the one slot
	full.Send(&Packet{Size: 100, Payload: refused})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		r    *releaseCounter
		want int
	}{{"lost", lost, 1}, {"filtered", dropped, 1}, {"tail-dropped", refused, 1}, {"delivered", onWire, 0}, {"delivered after queueing", queued, 0}} {
		if c.r.releases != c.want {
			t.Errorf("%s payload released %d times, want %d", c.name, c.r.releases, c.want)
		}
	}
	if len(col.Packets) != 2 {
		t.Errorf("delivered %d packets, want 2", len(col.Packets))
	}
}
