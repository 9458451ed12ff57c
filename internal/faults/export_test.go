package faults

// Counters returns the engine tallies.
func (f *LinkFilter) Counters() Counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eng.counters()
}
