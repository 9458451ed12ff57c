package lib

import (
	"sync"
	"time"
)

// Ticker stands for a clock: the purity guard is run with it banned.
type Ticker interface{ Now() time.Time }

// Core holds the purity cases.
type Core struct {
	n    int
	mu   sync.Mutex   // a sync field: reported
	tick Ticker       // a banned field: reported
	seen map[int]bool // a map field: reported by the map guard
	log  []int        // a slice field: not reported
}

// Step works on the caller's now: not reported.
func (c *Core) Step(now time.Time) int { return c.n + now.Second() }

// Tick reads the banned clock: reported.
func (c *Core) Tick() time.Time { return c.tick.Now() }

// Wall reads the wall clock: reported.
func (c *Core) Wall() time.Time { return time.Now() }

// Guarded takes the lock: reported.
func (c *Core) Guarded() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Seen ranges over a map, then over a slice: the map guard reports the
// map's walk alone.
func (c *Core) Seen() (n int) {
	for k := range c.seen {
		n += k
	}
	for _, v := range c.log {
		n += v
	}
	return n
}
