package queue

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"marnet/internal/simnet"
)

func pkt(id uint64, size int, flow uint64) *simnet.Packet {
	return &simnet.Packet{Seq: int64(id), Size: size, Flow: flow}
}

// oneFlow is an FQ-CoDel queue with one flow bucket: every packet shares
// one CoDel flow, which is plain CoDel behind a total packet bound.
func oneFlow(maxPkts int) *FQCoDel {
	q := NewFQCoDel(maxPkts)
	q.NumFlows, q.flows = 1, q.flows[:1]
	return q
}

func TestCoDelPassesLowDelayTraffic(t *testing.T) {
	q := oneFlow(0)
	// Packets that spend no time queued must never be dropped.
	for i := 0; i < 1000; i++ {
		now := time.Duration(i) * time.Millisecond
		if !q.Enqueue(pkt(uint64(i), 1000, 1), now) {
			t.Fatal("enqueue rejected")
		}
		got := q.Dequeue(now)
		if got == nil || got.Seq != int64(i) {
			t.Fatalf("packet %d: got %+v", i, got)
		}
	}
}

func TestCoDelDropsStandingQueue(t *testing.T) {
	q := oneFlow(0)
	// Build a standing queue: 500 packets enqueued at t=0, drained slowly so
	// sojourn times grow far beyond target for more than one interval.
	for i := 0; i < 500; i++ {
		q.Enqueue(pkt(uint64(i), 1000, 1), 0)
	}
	delivered := 0
	for i := 0; ; i++ {
		now := time.Duration(i) * 10 * time.Millisecond
		p := q.Dequeue(now)
		if p == nil {
			break
		}
		delivered++
	}
	// The queue drained: what it did not deliver, the law dropped.
	if delivered == 500 || q.Len() != 0 {
		t.Errorf("CoDel delivered %d of 500 and holds %d despite a persistent standing queue", delivered, q.Len())
	}
}

func TestCoDelTailBound(t *testing.T) {
	q := oneFlow(10)
	drops := 0
	for i := 0; i < 20; i++ {
		if !q.Enqueue(pkt(uint64(i), 100, 1), 0) {
			drops++
		}
	}
	if q.Len() != 10 {
		t.Errorf("len = %d, want 10", q.Len())
	}
	if drops != 10 {
		t.Errorf("drops = %d, want 10", drops)
	}
}

func TestCoDelEmptyDequeue(t *testing.T) {
	q := oneFlow(0)
	if q.Dequeue(time.Second) != nil {
		t.Error("empty queue should return nil")
	}
	if q.Bytes() != 0 || q.Len() != 0 {
		t.Error("empty queue should report zero")
	}
}

func TestFQCoDelIsolation(t *testing.T) {
	// A bulk flow (0) builds a big backlog; a sparse flow (1) sends one
	// packet. The sparse packet must come out ahead of nearly all bulk
	// packets thanks to new-flow priority.
	q := NewFQCoDel(0)
	for i := 0; i < 100; i++ {
		q.Enqueue(pkt(uint64(i), 1000, 0), 0)
	}
	// Drain a little so flow 0 is on the old list.
	first := q.Dequeue(0)
	if first == nil || first.Flow != 0 {
		t.Fatalf("expected bulk packet first, got %+v", first)
	}
	q.Enqueue(pkt(1000, 200, 1), time.Millisecond)
	got := q.Dequeue(time.Millisecond)
	if got == nil || got.Flow != 1 {
		t.Fatalf("sparse flow should jump the queue, got %+v", got)
	}
}

func TestFQCoDelDRRFairness(t *testing.T) {
	// Two equal flows with equal packet sizes should be served ~1:1.
	q := NewFQCoDel(0)
	for i := 0; i < 200; i++ {
		q.Enqueue(pkt(uint64(i), 1000, 0), 0)
		q.Enqueue(pkt(uint64(1000+i), 1000, 1), 0)
	}
	counts := map[uint64]int{}
	for i := 0; i < 100; i++ {
		p := q.Dequeue(0)
		if p == nil {
			t.Fatal("unexpected empty")
		}
		counts[p.Flow]++
	}
	if counts[0] < 40 || counts[1] < 40 {
		t.Errorf("unfair service: %v", counts)
	}
}

func TestFQCoDelDrainsCompletely(t *testing.T) {
	q := NewFQCoDel(0)
	const n = 300
	for i := 0; i < n; i++ {
		q.Enqueue(pkt(uint64(i), 100+i%7, uint64(i%5)), 0)
	}
	got := 0
	for q.Dequeue(0) != nil {
		got++
	}
	if got != n {
		t.Errorf("drained %d, want %d", got, n)
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Errorf("len=%d bytes=%d after drain", q.Len(), q.Bytes())
	}
}

func TestFQCoDelTotalBound(t *testing.T) {
	q := NewFQCoDel(5)
	acc := 0
	for i := 0; i < 10; i++ {
		if q.Enqueue(pkt(uint64(i), 100, uint64(i)), 0) {
			acc++
		}
	}
	if acc != 5 {
		t.Errorf("accepted %d, want 5", acc)
	}
}

func TestStrictPriorityOrdering(t *testing.T) {
	q := NewStrictPriority(3, 0)
	a := pkt(1, 100, 1)
	a.Prio = 2
	b := pkt(2, 100, 1)
	b.Prio = 0
	c := pkt(3, 100, 1)
	c.Prio = 1
	q.Enqueue(a, 0)
	q.Enqueue(b, 0)
	q.Enqueue(c, 0)
	wantOrder := []uint64{2, 3, 1}
	for i, want := range wantOrder {
		got := q.Dequeue(0)
		if got == nil || got.Seq != int64(want) {
			t.Fatalf("dequeue %d: got %+v, want ID %d", i, got, want)
		}
	}
}

func TestStrictPriorityClampsAndClassifies(t *testing.T) {
	q := NewStrictPriority(2, 0)
	far := pkt(1, 100, 1)
	far.Prio = 99
	neg := pkt(2, 100, 1)
	neg.Prio = -1
	q.Enqueue(far, 0)
	q.Enqueue(neg, 0)
	if q.BandLen(1) != 1 || q.BandLen(0) != 1 {
		t.Errorf("band lens = %d,%d", q.BandLen(0), q.BandLen(1))
	}

	q2 := NewStrictPriority(2, 0)
	q2.Classify = func(p *simnet.Packet) int {
		if p.Size > 500 {
			return 1
		}
		return 0
	}
	big := pkt(3, 1000, 1)
	small := pkt(4, 100, 1)
	q2.Enqueue(big, 0)
	q2.Enqueue(small, 0)
	if got := q2.Dequeue(0); got.Seq != 4 {
		t.Errorf("classifier ignored: got %d", got.Seq)
	}
}

func TestStrictPriorityPerBandBound(t *testing.T) {
	q := NewStrictPriority(2, 2)
	drops := 0
	for i := 0; i < 5; i++ {
		p := pkt(uint64(i), 10, 1)
		p.Prio = 0
		if !q.Enqueue(p, 0) {
			drops++
		}
	}
	if q.Len() != 2 || drops != 3 {
		t.Errorf("len=%d drops=%d, want 2 and 3", q.Len(), drops)
	}
}

func TestNewStrictPriorityMinimumBands(t *testing.T) {
	q := NewStrictPriority(0, 0)
	p := pkt(1, 10, 1)
	p.Prio = 5
	if !q.Enqueue(p, 0) {
		t.Fatal("enqueue failed")
	}
	if got := q.Dequeue(0); got == nil || got.Seq != 1 {
		t.Fatalf("got %+v", got)
	}
}

// Property: conservation — for every discipline, packets out + drops ==
// packets in, and Bytes()/Len() return to zero after a full drain.
func TestQueueConservationProperty(t *testing.T) {
	mk := map[string]func() simnet.Queue{
		"codel":    func() simnet.Queue { return oneFlow(50) },
		"fqcodel":  func() simnet.Queue { return NewFQCoDel(50) },
		"priority": func() simnet.Queue { return NewStrictPriority(4, 50) },
		"droptail": func() simnet.Queue { return simnet.NewDropTail(50) },
	}
	for name, ctor := range mk {
		name, ctor := name, ctor
		t.Run(name, func(t *testing.T) {
			f := func(ops []uint16) bool {
				q := ctor()
				accepted, drained := 0, 0
				now := time.Duration(0)
				var id uint64
				for _, op := range ops {
					now += time.Duration(op%17) * time.Millisecond
					if op%3 != 0 {
						id++
						p := pkt(id, int(op%1400)+40, uint64(op%8))
						p.Prio = int(op % 5)
						if q.Enqueue(p, now) {
							accepted++
						}
					} else if q.Dequeue(now) != nil {
						drained++
					}
				}
				// Drain the rest far in the future (CoDel may drop some).
				now += time.Hour
				for q.Dequeue(now) != nil {
					drained++
				}
				if q.Len() != 0 || q.Bytes() != 0 {
					return false
				}
				// drained <= accepted; the difference is AQM drops.
				return drained <= accepted
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
