package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: for any burst of packets through a lossy bounded link, every
// packet is accounted for exactly once — delivered, lost on the wire, or
// dropped at the queue — and the byte counters agree.
func TestLinkConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, qRaw, lossRaw uint8) bool {
		n := int(nRaw%500) + 1
		qcap := int(qRaw%64) + 1
		loss := float64(lossRaw%90) / 100
		sim := New(seed)
		col := NewCollector(sim)
		link := NewLink(sim, 1e6, time.Millisecond, col,
			WithLoss(loss), WithQueue(NewDropTail(qcap)), WithJitter(2*time.Millisecond))
		var sentBytes int64
		for i := 0; i < n; i++ {
			size := 100 + i%1300
			sentBytes += int64(size)
			link.Send(&Packet{Seq: int64(i), Size: size})
		}
		if err := sim.Run(); err != nil {
			return false
		}
		st := link.Stats()
		if st.Delivered != int64(len(col.Packets)) {
			return false
		}
		// Conservation: queued-dropped + serialized == offered, and
		// serialized == delivered + lost.
		if st.QueueDrops+st.SentPackets != int64(n) {
			return false
		}
		if st.SentPackets != st.Delivered+st.LostPackets {
			return false
		}
		// Byte accounting for the collector.
		var deliveredBytes int64
		for _, p := range col.Packets {
			deliveredBytes += int64(p.Size)
		}
		return deliveredBytes <= sentBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplexSymmetry(t *testing.T) {
	sim := New(1)
	colA, colB := NewCollector(sim), NewCollector(sim)
	aToB := NewLink(sim, 1e6, 5*time.Millisecond, colB)
	bToA := NewLink(sim, 1e6, 5*time.Millisecond, colA)
	aToB.Send(&Packet{Seq: 1, Size: 1250})
	bToA.Send(&Packet{Seq: 2, Size: 1250})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(colB.Packets) != 1 || colB.Packets[0].Seq != 1 {
		t.Errorf("B got %v", colB.Packets)
	}
	if len(colA.Packets) != 1 || colA.Packets[0].Seq != 2 {
		t.Errorf("A got %v", colA.Packets)
	}
	if colA.Times[0] != colB.Times[0] {
		t.Errorf("asymmetric delivery times: %v vs %v", colA.Times[0], colB.Times[0])
	}
}
