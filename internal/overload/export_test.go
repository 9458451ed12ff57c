package overload

// The gate calls its Admission only under its own lock; these tests drive
// one Admission from a single goroutine.

// Offer submits an item for admission at the queues' clock reading.
func (a *Admission) Offer(it *Item) bool { return a.offer(it, a.clock()) }

// TryPop returns the next item in strict tier order plus any items the
// CoDel controller shed on the way; ok is false when no work is queued.
func (a *Admission) TryPop() (it *Item, shed []*Item, ok bool) {
	it, shed, _ = a.pop()
	return it, shed, it != nil
}

// Inflight reports how many items have been handed over and not yet Done.
func (g *Gate) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// Depth reports the total queued items.
func (g *Gate) Depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.adm.depth()
}
