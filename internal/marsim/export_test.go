package marsim

// Trace exposes the deterministic run trace.
func (c *City) Trace() *Trace { return c.trace }

// Lines reports how many events were recorded.
func (t *Trace) Lines() int {
	if len(t.chunks) == 0 {
		return 0
	}
	return (len(t.chunks)-1)*chunkEvents + t.fill
}
