package simnet

// Dropped reports packets that had no handler.
func (d *Demux) Dropped() int64 { return d.dropped }

// Fired reports whether the event's callback ran. It stays true while the
// callback runs and until the recycled record completes a subsequent
// lifetime; after that the handle has expired and Fired reports false.
func (e Event) Fired() bool {
	r := e.rec
	if r == nil {
		return false
	}
	if r.gen == e.gen {
		return r.firing
	}
	return r.gen == e.gen+1 && r.prevFired
}

// Cancelled reports whether Cancel stopped the event before it fired, with
// the same one-completion freshness window as Fired.
func (e Event) Cancelled() bool {
	r := e.rec
	return r != nil && r.gen == e.gen+1 && !r.prevFired
}

// SetEventLimit overrides the runaway-loop protection limit.
func (s *Sim) SetEventLimit(n int) { s.maxEvent = n }

// poolSize reports the free-list length (test hook for the pooling pin).
func (s *Sim) poolSize() int { return len(s.free) }

// Drops reports the number of packets rejected at the tail.
func (q *DropTail) Drops() int64 { return q.drops }
