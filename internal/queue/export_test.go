package queue

// Drops reports total drops (tail + AQM).
func (q *FQCoDel) Drops() int64 {
	d := q.drops
	for _, f := range q.flows {
		if f != nil {
			d += f.drops
		}
	}
	return d
}

// Drops reports tail drops across bands.
func (q *StrictPriority) Drops() int64 { return q.drops }

// BandLen reports queued packets in band i.
func (q *StrictPriority) BandLen(i int) int { return q.bands[i].Len() }
