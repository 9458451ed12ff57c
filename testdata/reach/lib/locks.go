package lib

import "sync"

// Box holds the lock-discipline cases.
type Box struct {
	mu     sync.Mutex
	n      int
	closed bool
}

// bumpLocked needs mu held.
func (b *Box) bumpLocked() int {
	b.n++
	return b.n
}

// twiceLocked calls another …Locked function: not reported.
func (b *Box) twiceLocked() int { return b.bumpLocked() + b.bumpLocked() }

// Held calls under a deferred Unlock: not reported.
func (b *Box) Held() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.twiceLocked()
}

// Branch unlocks in a branch that returns, the closed idiom: not reported.
func (b *Box) Branch() int {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0
	}
	n := b.bumpLocked()
	b.mu.Unlock()
	return n
}

// Unlocked never takes the lock: reported.
func (b *Box) Unlocked() int { return b.bumpLocked() }

// Relocked calls after an Unlock that falls through: reported.
func (b *Box) Relocked() int {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
	}
	return b.bumpLocked()
}

// Callback hands the method value out to be called later: reported.
func (b *Box) Callback() func() int { return b.bumpLocked }

// Kept calls without the lock but is allowlisted: not reported.
func (b *Box) Kept() int { return b.bumpLocked() }

// SwitchBreak unlocks and breaks out of a switch, which carries on to the
// call: reported.
func (b *Box) SwitchBreak() int {
	b.mu.Lock()
	switch {
	case b.closed:
		b.mu.Unlock()
		break
	}
	return b.bumpLocked()
}

// LoopRelease releases inside a loop the lock it took before it, so the
// second iteration calls without it: reported.
func (b *Box) LoopRelease() {
	b.mu.Lock()
	for i := 0; i < 2; i++ {
		b.bumpLocked()
		b.mu.Unlock()
	}
}

// LoopRelock takes the lock on every iteration and unlocks on the way
// out, by the break or at the end: not reported.
func (b *Box) LoopRelock() {
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			break
		}
		b.bumpLocked()
		b.mu.Unlock()
	}
}
