package simnet

import (
	"testing"
	"time"
)

func BenchmarkEventScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	n := 0
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(i)*time.Nanosecond, func() { n++ })
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkEventRearmChurn is the keepalive/pacer pattern at fleet scale:
// cancel + reschedule a far-deadline timer, firing a near one each cycle.
// The pooled core runs this at 0 allocs/op with the heap bounded by live
// timers.
func BenchmarkEventRearmChurn(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	fn := func() {}
	keepalive := s.Schedule(time.Hour, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keepalive.Cancel()
		keepalive = s.Schedule(time.Hour, fn)
		s.Schedule(time.Microsecond, fn)
		if err := s.RunUntil(s.Now() + time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
	if p := s.Pending(); p != 1 {
		b.Fatalf("Pending = %d, want 1", p)
	}
}

func BenchmarkLinkPacketForwarding(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	delivered := 0
	sink := HandlerFunc(func(*Packet) { delivered++ })
	link := NewLink(s, 1e12, time.Microsecond, sink, WithQueue(NewDropTail(0)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Send(&Packet{Seq: int64(i), Size: 1500})
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

func BenchmarkThreeHopPath(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	sink := &Sink{}
	ingress := NewPath(s, sink,
		Hop(1e12, time.Microsecond, WithQueue(NewDropTail(0))),
		Hop(1e12, time.Microsecond, WithQueue(NewDropTail(0))),
		Hop(1e12, time.Microsecond, WithQueue(NewDropTail(0))),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingress.Send(&Packet{Seq: int64(i), Size: 1500})
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkDropTail(b *testing.B) {
	q := NewDropTail(0)
	pkt := &Packet{Size: 1500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(pkt, 0)
		q.Dequeue(0)
	}
}
