package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestSeqWindow(t *testing.T) {
	type step struct {
		op   string // "mark" or "nack"
		seq  int64
		want bool
	}
	const size = 8
	cases := []struct {
		name     string
		steps    []step
		wantNext int64
	}{
		{"in order", []step{{"mark", 0, true}, {"mark", 1, true}, {"mark", 2, true}}, 3},
		{"reorder inside the window", []step{
			{"mark", 0, true}, {"mark", 3, true}, {"mark", 1, true}, {"mark", 2, true},
		}, 4},
		{"duplicate inside the window", []step{
			{"mark", 0, true}, {"mark", 5, true}, {"mark", 5, false}, {"mark", 0, false},
		}, 6},
		{"duplicate older than the window is rejected", []step{
			{"mark", 0, true}, {"mark", 20, true},
			{"mark", 12, false}, // one below the window floor [13, 21)
			{"mark", 13, true},  // the floor itself is still a hole
			{"mark", 0, false},
		}, 21},
		{"jump of a whole window clears everything", []step{
			{"mark", 0, true}, {"mark", 1, true}, {"mark", 7, true},
			{"mark", 1 + 7 + size, true}, // jump >= size from next=8
			{"mark", 9, true},            // shares a slot with 1: must read as a hole
			{"mark", 15, true},           // shares a slot with 7
		}, 17},
		{"slot reuse after wrap", []step{
			{"mark", 0, true}, {"mark", 1, true}, {"mark", 2, true},
			{"mark", 8, true},                      // slot 0 again
			{"mark", 9, true},                      // slot 1 again
			{"mark", 10, true},                     // slot 2 again
			{"mark", 8, false}, {"mark", 2, false}, // 2 fell out: [3, 11)
			{"mark", 3, true},
		}, 11},
		{"nack capped at two", []step{
			{"mark", 0, true}, {"mark", 4, true},
			{"nack", 2, true}, {"nack", 2, true}, {"nack", 2, false},
			{"nack", 0, false},  // received
			{"nack", 4, false},  // received
			{"nack", 5, false},  // not a hole yet: beyond next
			{"nack", -9, false}, // older than the window
			{"mark", 2, true}, {"nack", 2, false},
		}, 5},
		{"nack count reset when the slot is recycled", []step{
			{"mark", 0, true}, {"mark", 4, true},
			{"nack", 2, true}, {"nack", 2, true}, {"nack", 2, false},
			{"mark", 12, true}, // window [5, 13): 10 reuses 2's slot
			{"nack", 10, true}, {"nack", 10, true}, {"nack", 10, false},
			{"nack", 2, false},
		}, 13},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewSeqWindow(size)
			for i, s := range tc.steps {
				var got bool
				if s.op == "mark" {
					got = w.Mark(s.seq)
				} else {
					got = w.Nack(s.seq)
				}
				if got != s.want {
					t.Fatalf("step %d: %s(%d) = %v, want %v", i, s.op, s.seq, got, s.want)
				}
			}
			if w.Next() != tc.wantNext {
				t.Errorf("Next() = %d, want %d", w.Next(), tc.wantNext)
			}
			if len(w.slots) != size {
				t.Errorf("slots = %d, want %d", len(w.slots), size)
			}
		})
	}
}

// Sequence numbers come off the wire: values at the ends of int64 must
// cost one pass over the ring at most, never a walk across the gap.
func TestSeqWindowExtremeSequences(t *testing.T) {
	w := NewSeqWindow(8)
	for _, seq := range []int64{5, math.MaxInt64 - 1, 0, math.MinInt64, -3, math.MaxInt64, 7} {
		w.Mark(seq)
		w.Nack(seq - 1)
	}
	if !w.Mark(9) || w.Mark(9) {
		t.Error("window did not recover ordinary duplicate detection")
	}
}

func TestSeqWindowRejectsBadSize(t *testing.T) {
	for _, size := range []int{0, -8, 3, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSeqWindow(%d) did not panic", size)
				}
			}()
			NewSeqWindow(size)
		}()
	}
}

// refWindow is the plain map-based model SeqWindow replaced: a received
// set and a NACK-count map pruned below next-size.
type refWindow struct {
	size     int64
	next     int64
	received map[int64]bool
	nacked   map[int64]int
}

func newRefWindow(size int) *refWindow {
	return &refWindow{size: int64(size), received: map[int64]bool{}, nacked: map[int64]int{}}
}

func (r *refWindow) mark(seq int64) bool {
	if seq < r.next-r.size || r.received[seq] {
		return false
	}
	r.received[seq] = true
	if seq >= r.next {
		r.next = seq + 1
		for s := range r.received {
			if s < r.next-r.size {
				delete(r.received, s)
			}
		}
		for s := range r.nacked {
			if s < r.next-r.size {
				delete(r.nacked, s)
			}
		}
	}
	return true
}

func (r *refWindow) nackable(seq int64) bool {
	return seq < r.next && seq >= r.next-r.size && !r.received[seq] && r.nacked[seq] < 2
}

func (r *refWindow) nack(seq int64) bool {
	if !r.nackable(seq) {
		return false
	}
	r.nacked[seq]++
	return true
}

func TestSeqWindowMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const size = 64
		w, ref := NewSeqWindow(size), newRefWindow(size)
		head := int64(0)
		for i := 0; i < 20000; i++ {
			var seq int64
			switch r := rng.Intn(100); {
			case r < 60: // near the head, both sides of it
				seq = head + int64(rng.Intn(12)) - 4
			case r < 85: // anywhere in or just below the window
				seq = head - int64(rng.Intn(size+16))
			case r < 97: // small forward jump
				seq = head + int64(rng.Intn(size))
			default: // jump past the whole window
				seq = head + size + int64(rng.Intn(3*size))
			}
			if rng.Intn(4) == 0 {
				if got, want := w.Nackable(seq), ref.nackable(seq); got != want {
					t.Fatalf("seed %d op %d: Nackable(%d) = %v, model %v", seed, i, seq, got, want)
				}
				if got, want := w.Nack(seq), ref.nack(seq); got != want {
					t.Fatalf("seed %d op %d: Nack(%d) = %v, model %v", seed, i, seq, got, want)
				}
			} else if got, want := w.Mark(seq), ref.mark(seq); got != want {
				t.Fatalf("seed %d op %d: Mark(%d) = %v, model %v", seed, i, seq, got, want)
			}
			if w.Next() != ref.next {
				t.Fatalf("seed %d op %d: Next() = %d, model %d", seed, i, w.Next(), ref.next)
			}
			head = w.Next()
		}
		if len(w.slots) != size {
			t.Fatalf("seed %d: ring grew to %d slots", seed, len(w.slots))
		}
	}
}

func TestSeqWindowZeroAlloc(t *testing.T) {
	w := NewSeqWindow(2048)
	seq := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		w.Mark(seq + 2) // leave holes to NACK
		w.Nack(seq)
		w.Nack(seq + 1)
		w.Mark(seq) // late arrival
		w.Mark(seq) // duplicate
		seq += 3
	})
	if allocs != 0 {
		t.Fatalf("SeqWindow mark/nack: %.2f allocs/op, want 0", allocs)
	}
	w.Mark(seq + 1<<20) // a jump that clears the whole ring
	if a := testing.AllocsPerRun(100, func() { seq += 5000; w.Mark(seq + 1<<20) }); a != 0 {
		t.Fatalf("SeqWindow full-ring jump: %.2f allocs/op, want 0", a)
	}
}
