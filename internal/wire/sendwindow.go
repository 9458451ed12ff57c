package wire

// sendWindow is a stream's reliable frames awaiting acknowledgment: each
// wpending held by value in a power-of-two ring indexed by sequence, after
// RFC 9002's sent-packet record (§6), which is ordered by packet number. A
// stream's sequences are dense and only ever appended, so put is an
// append at the tail, get is one index, and the records are visited in
// sequence order with no sort. The live records are also linked in that
// order, so a walk steps from one to the next and never over the empty
// slots of the frames retired behind a head that is stuck (a critical
// frame lost again and again while thousands after it are acknowledged):
// a walk costs what it visits, never the window's span.
type sendWindow struct {
	slots      []sentFrame // seq lives at seq&(len(slots)-1) while head <= seq <= tail
	head, tail int64       // the oldest and the newest record's sequence, while n > 0
	n          int         // records held
}

// sentFrame is one slot: empty (the zero value) or a record, linked to the
// records before and after it.
type sentFrame struct {
	wpending
	prev, next int64 // the neighbouring records' sequences; unused at the ends
}

// minSendWindow is the ring's first size; it doubles as the span of the
// records held outgrows it, and never shrinks.
const minSendWindow = 16

func (w *sendWindow) len() int { return w.n }

func (w *sendWindow) slot(seq int64) *sentFrame { return &w.slots[seq&int64(len(w.slots)-1)] }

// get is seq's record, nil when the window holds none for it.
func (w *sendWindow) get(seq int64) *wpending {
	if w.n == 0 || seq < w.head || seq > w.tail {
		return nil
	}
	s := w.slot(seq)
	if s.pbuf == nil {
		return nil
	}
	return &s.wpending
}

// put files p, whose payload buffer is set, as the record of seq, which is
// newer than every sequence the window holds.
func (w *sendWindow) put(seq int64, p wpending) {
	if w.n == 0 {
		w.head = seq
	}
	if span := seq - w.head + 1; span > int64(len(w.slots)) {
		w.grow(span)
	}
	*w.slot(seq) = sentFrame{wpending: p, prev: w.tail}
	if w.n > 0 {
		w.slot(w.tail).next = seq
	}
	w.tail = seq
	w.n++
}

// grow moves the records into a ring of at least span slots.
func (w *sendWindow) grow(span int64) {
	size := max(2*len(w.slots), minSendWindow)
	for int64(size) < span {
		size *= 2
	}
	old := *w
	w.slots = make([]sentFrame, size)
	for seq, ok := old.first(); ok; seq, ok = old.after(seq) {
		*w.slot(seq) = *old.slot(seq)
	}
}

// remove retires the record of seq, which the window holds, and empties
// its slot.
func (w *sendWindow) remove(seq int64) {
	s := w.slot(seq)
	if seq == w.head {
		w.head = s.next
	} else {
		w.slot(s.prev).next = s.next
	}
	if seq == w.tail {
		w.tail = s.prev
	} else {
		w.slot(s.next).prev = s.prev
	}
	*s = sentFrame{}
	w.n--
}

// first is the oldest record's sequence; ok is false when there is none.
func (w *sendWindow) first() (seq int64, ok bool) { return w.head, w.n > 0 }

// after is the sequence of the record next after seq's, which the window
// holds; ok is false when seq is the newest. A walk that may retire seq
// reads it first.
func (w *sendWindow) after(seq int64) (next int64, ok bool) {
	return w.slot(seq).next, seq != w.tail
}
