package marsim

import "marnet/internal/obs"

// Trace exposes the deterministic run trace.
func (c *City) Trace() *Trace { return c.trace }

// Lines reports how many events were recorded, by walking the log.
func (t *Trace) Lines() int {
	n := 0
	t.Events(func(obs.Event) bool { n++; return true })
	return n
}
