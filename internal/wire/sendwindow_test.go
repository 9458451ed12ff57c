package wire

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkWindow verifies a send window's invariants: its walk visits n
// records in increasing sequence order from head to tail, each linked both
// ways and found by get, and get finds nothing between them.
func checkWindow(w *sendWindow) error {
	var walked []int64
	prev := int64(-1)
	for seq, ok := w.first(); ok; seq, ok = w.after(seq) {
		if len(walked) > 0 && (seq <= prev || w.slot(seq).prev != prev) {
			return fmt.Errorf("walk reaches %d after %d (back link %d)", seq, prev, w.slot(seq).prev)
		}
		if w.get(seq) == nil {
			return fmt.Errorf("walk reaches %d, which get does not find", seq)
		}
		walked = append(walked, seq)
		prev = seq
		if len(walked) > w.n {
			return fmt.Errorf("walk visits more than the %d records held", w.n)
		}
	}
	if len(walked) != w.n {
		return fmt.Errorf("walk visits %d records, %d held", len(walked), w.n)
	}
	if w.n == 0 {
		return nil
	}
	if walked[0] != w.head || walked[len(walked)-1] != w.tail {
		return fmt.Errorf("walk runs %d..%d, window %d..%d", walked[0], walked[len(walked)-1], w.head, w.tail)
	}
	if span := w.tail - w.head + 1; span > int64(len(w.slots)) {
		return fmt.Errorf("span %d outgrows %d slots", span, len(w.slots))
	}
	j := 0
	for seq := w.head; seq <= w.tail; seq++ {
		if walked[j] == seq {
			j++
		} else if w.get(seq) != nil {
			return fmt.Errorf("get finds %d, which the walk does not visit", seq)
		}
	}
	return nil
}

// TestSendWindowAgainstMap runs random appends and retirements against a
// map and its sorted keys, the structure the window replaced: get finds
// exactly what the map holds and the walk is the sorted key order. Some
// runs hold the head back for thousands of sequences, so the ring grows
// with a stuck head and the walk steps over the retired slots behind it.
func TestSendWindowAgainstMap(t *testing.T) {
	widest := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w sendWindow
		ref := map[int64]*[]byte{}
		next := int64(rng.Intn(1000)) // a stream's first sequence need not be 0 here
		stuckUntil := 0
		for step := 0; step < 10_000; step++ {
			keys := make([]int64, 0, len(ref))
			for seq := range ref {
				keys = append(keys, seq)
			}
			slices.Sort(keys)
			if rng.Intn(500) == 0 {
				stuckUntil = step + rng.Intn(3000)
			}
			switch {
			case len(keys) == 0 || rng.Intn(2) == 0:
				pb := new([]byte)
				w.put(next, wpending{pbuf: pb, retx: int(next % 7)})
				ref[next] = pb
				next++
			default:
				i := rng.Intn(len(keys))
				if step < stuckUntil && i == 0 && len(keys) > 1 {
					i = 1 // the head stays
				}
				w.remove(keys[i])
				delete(ref, keys[i])
			}
			widest = max(widest, len(w.slots))
			if err := checkWindow(&w); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for _, seq := range []int64{next - 1 - int64(rng.Intn(64)), next, -1} {
				got, want := w.get(seq), ref[seq]
				if (got == nil) != (want == nil) || got != nil && (got.pbuf != want || got.retx != int(seq%7)) {
					t.Fatalf("seed %d step %d: get(%d) = %v, the map holds %v", seed, step, seq, got, want)
				}
			}
		}
	}
	if widest < 1024 {
		t.Fatalf("the ring grew to %d slots at most: no head was held back long", widest)
	}
}
