package faults

import (
	"testing"
	"time"

	"marnet/internal/simnet"
)

// runFiltered pushes n packets through a simnet link wearing the given
// filter and returns the link stats.
func runFiltered(t *testing.T, f *LinkFilter, n int, gap time.Duration) simnet.LinkStats {
	t.Helper()
	sim := simnet.New(1)
	recv := simnet.HandlerFunc(func(*simnet.Packet) {})
	link := simnet.NewLink(sim, 10e6, time.Millisecond, recv)
	link.SetFilter(f)
	for i := 0; i < n; i++ {
		pkt := &simnet.Packet{Seq: int64(i), Size: 500}
		sim.Schedule(time.Duration(i)*gap, func() { link.Send(pkt) })
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return link.Stats()
}

func TestLinkFilterLossOnSimnetLink(t *testing.T) {
	f := NewLinkFilter(DirConfig{Loss: 0.5}, 7)
	st := runFiltered(t, f, 1000, 10*time.Microsecond)
	if st.FilterDrops == 0 {
		t.Fatal("filter dropped nothing")
	}
	if st.LostPackets != 0 {
		t.Errorf("link's own loss fired: %d", st.LostPackets)
	}
	// Conservation with a filter attached: every serialized packet is either
	// filter-dropped or delivered (plus any filter duplicates).
	if st.Delivered != st.SentPackets-st.FilterDrops+st.FilterDups {
		t.Errorf("conservation violated: %+v", st)
	}
	c := f.Counters()
	if c.Dropped != st.FilterDrops || c.Forwarded != st.SentPackets-st.FilterDrops {
		t.Errorf("filter counters disagree with link stats: %+v vs %+v", c, st)
	}

	// Same seed → identical outcome.
	st2 := runFiltered(t, NewLinkFilter(DirConfig{Loss: 0.5}, 7), 1000, 10*time.Microsecond)
	if st2 != st {
		t.Errorf("seeded runs diverge: %+v vs %+v", st2, st)
	}
}

func TestLinkFilterDuplicatesAndDelay(t *testing.T) {
	f := NewLinkFilter(DirConfig{Dup: 1.0, Delay: 5 * time.Millisecond}, 0)
	st := runFiltered(t, f, 50, time.Millisecond)
	if st.FilterDups != 50 {
		t.Errorf("FilterDups = %d, want 50", st.FilterDups)
	}
	if st.Delivered != 100 {
		t.Errorf("Delivered = %d, want 100", st.Delivered)
	}
}

func TestLinkFilterCorruptionIsDrop(t *testing.T) {
	// Simulated packets carry no bytes to flip: corruption must surface as a
	// drop (receiver integrity check), tallied under Corrupted.
	f := NewLinkFilter(DirConfig{Corrupt: 1.0}, 0)
	st := runFiltered(t, f, 40, time.Millisecond)
	if st.Delivered != 0 {
		t.Errorf("corrupted packets delivered: %d", st.Delivered)
	}
	if st.FilterDrops != 40 {
		t.Errorf("FilterDrops = %d, want 40", st.FilterDrops)
	}
	if c := f.Counters(); c.Corrupted != 40 {
		t.Errorf("Corrupted = %d, want 40", c.Corrupted)
	}
}

func TestLinkFilterTimelineInSimulatedTime(t *testing.T) {
	// Blackhole window [10ms, 20ms) in *simulated* time.
	f := NewLinkFilter(DirConfig{}, 0,
		Event{At: 10 * time.Millisecond, Blackhole: On},
		Event{At: 20 * time.Millisecond, Blackhole: Off},
	)
	st := runFiltered(t, f, 30, time.Millisecond)
	c := f.Counters()
	if c.Blackholed == 0 {
		t.Fatal("timeline blackhole never applied")
	}
	// Packets sent at 0..9ms and 20..29ms pass; roughly 10 fall inside.
	if c.Blackholed < 8 || c.Blackholed > 12 {
		t.Errorf("Blackholed = %d, want ≈10", c.Blackholed)
	}
	if st.Delivered != st.SentPackets-st.FilterDrops {
		t.Errorf("conservation violated: %+v", st)
	}
}
