package queue

// BandLen reports queued packets in band i.
func (q *StrictPriority) BandLen(i int) int { return q.bands[i].Len() }
