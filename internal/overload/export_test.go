package overload

// Offer submits an item for admission. It returns false when the item's
// tier queue is at capacity (or the queues are closed); the item is
// stamped and queued otherwise.
func (a *Admission) Offer(it *Item) bool { return a.offer(it, a.cfg.Clock()) }

// Pop blocks until work is available (or the queues close: ok=false). It
// returns the next item in strict tier order plus any items the CoDel
// controller shed while the caller was away — the caller owes each shed
// item a rejection answer, so sheds surface to clients immediately instead
// of as silence.
func (a *Admission) Pop() (it *Item, shed []*Item, ok bool) {
	it, shed, _, ok = a.pop(true)
	return it, shed, ok
}

// TryPop is Pop without blocking; ok is false when no work is queued.
func (a *Admission) TryPop() (it *Item, shed []*Item, ok bool) {
	it, shed, _, ok = a.pop(false)
	return it, shed, ok
}

// Inflight reports how many items workers currently hold.
func (g *Gate) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}
