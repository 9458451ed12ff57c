package tcp

// Cwnd returns the current congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// AckedBytes reports the number of cumulatively acknowledged payload bytes.
func (s *Sender) AckedBytes() int64 { return s.sndUna * MSS }

// Completed reports whether a bounded transfer has fully finished.
func (s *Sender) Completed() bool { return s.done }
