package core

// SeqWindow is the receive-side state of one ARTP stream: which of the
// most recent sequence numbers have arrived and how often each hole has
// been NACKed. It is a power-of-two ring indexed by seq & (size-1) that
// covers [Floor(), Next()); every operation is O(1) and allocates nothing,
// and the ring never grows. A sequence older than the window is reported
// as already seen: its slot has been recycled, so the only safe answer to
// "is this a duplicate" is yes.
type SeqWindow struct {
	slots []uint8 // seqReceived | NACK count, valid for [next-len, next)
	next  int64   // highest sequence marked, plus one
}

const (
	seqReceived  = 0x80
	seqNackMask  = 0x03
	seqNackLimit = 2 // a hole is NACKed at most this many times
)

// NewSeqWindow returns a window over the last size sequences; size must be
// a power of two.
func NewSeqWindow(size int) SeqWindow {
	if size <= 0 || size&(size-1) != 0 {
		panic("core: SeqWindow size must be a power of two")
	}
	return SeqWindow{slots: make([]uint8, size)}
}

// Next is the sequence the receiver expects next: one past the highest
// sequence marked so far.
func (w *SeqWindow) Next() int64 { return w.next }

// Floor is the oldest sequence the window still covers.
func (w *SeqWindow) Floor() int64 { return w.next - int64(len(w.slots)) }

// Mark records seq as received and reports whether it was new. A sequence
// at or beyond Next slides the window forward, clearing only the slots
// between the old and the new high-water mark (all of them when the jump
// spans the whole ring).
func (w *SeqWindow) Mark(seq int64) bool {
	mask := int64(len(w.slots) - 1)
	if seq >= w.next {
		// The distance is taken unsigned and the clear loop is counted, so
		// a hostile sequence near either end of int64 costs at most one
		// pass over the ring.
		if gap := uint64(seq) - uint64(w.next); gap >= uint64(len(w.slots)) {
			clear(w.slots)
		} else {
			for i := int64(0); i <= int64(gap); i++ {
				w.slots[(w.next+i)&mask] = 0
			}
		}
		w.next = seq + 1
	} else if seq < w.Floor() || w.slots[seq&mask]&seqReceived != 0 {
		return false
	}
	w.slots[seq&mask] |= seqReceived
	return true
}

// Has reports whether seq is inside the window and marked received.
func (w *SeqWindow) Has(seq int64) bool {
	return seq < w.next && seq >= w.Floor() && w.slots[seq&int64(len(w.slots)-1)]&seqReceived != 0
}

// Nackable reports whether seq is a hole that may still be NACKed: inside
// the window, not received, NACKed fewer than twice.
func (w *SeqWindow) Nackable(seq int64) bool {
	if seq >= w.next || seq < w.Floor() {
		return false
	}
	s := w.slots[seq&int64(len(w.slots)-1)]
	return s&seqReceived == 0 && s&seqNackMask < seqNackLimit
}

// Nack counts one NACK against seq and reports whether it should be sent
// (see Nackable). The count dies with the slot when the window slides
// past it.
func (w *SeqWindow) Nack(seq int64) bool {
	if !w.Nackable(seq) {
		return false
	}
	w.slots[seq&int64(len(w.slots)-1)]++
	return true
}
