package simnet

// SetEventLimit overrides the runaway-loop protection limit.
func (s *Sim) SetEventLimit(n int) { s.maxEvent = n }

// poolSize reports the free-list length (test hook for the pooling pin).
func (s *Sim) poolSize() int { return len(s.free) }
