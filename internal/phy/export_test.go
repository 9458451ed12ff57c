package phy

// Backlog reports queued packets.
func (st *Station) Backlog() int { return st.queue.Len() }
