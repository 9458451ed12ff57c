package faults

import (
	"sync"
	"time"

	"marnet/internal/simnet"
)

// LinkFilter adapts the impairment engine to a simnet link: attach it with
// Link.SetFilter and the same seeded loss/dup/reorder/timeline machinery
// that drives the UDP relay drives the simulated wire, keyed to simulated
// time so runs are exactly reproducible.
//
// Corruption is modelled as a drop (simulated packets carry no bytes to
// flip; the receiver's integrity check would discard the frame), counted
// under Corrupted rather than Dropped.
type LinkFilter struct {
	mu       sync.Mutex
	eng      *engine
	timeline []Event
	next     int
}

// NewLinkFilter builds a filter applying cfg from simulated time zero, with
// an optional scripted timeline. Timeline Upstream events do not apply to
// simulated links and are ignored; Dir is likewise ignored (attach one
// filter per direction instead).
func NewLinkFilter(cfg DirConfig, seed int64, timeline ...Event) *LinkFilter {
	return &LinkFilter{eng: newEngine(cfg, seed), timeline: sortEvents(timeline)}
}

// Filter implements simnet.PacketFilter.
func (f *LinkFilter) Filter(pkt *simnet.Packet, now time.Duration) simnet.Verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.next < len(f.timeline) && f.timeline[f.next].At <= now {
		ev := f.timeline[f.next]
		f.next++
		if ev.Set != nil {
			f.eng.setConfig(*ev.Set)
		}
		if ev.Blackhole != nil {
			f.eng.cfg.Blackhole = *ev.Blackhole
		}
	}
	v := f.eng.decide(now, pkt.Size)
	return simnet.Verdict{
		Drop:       v.drop || v.corrupt,
		Duplicate:  v.dup,
		ExtraDelay: v.delay,
	}
}
