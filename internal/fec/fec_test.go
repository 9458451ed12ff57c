package fec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// Inverse: a * a^-1 == 1 for all nonzero a.
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("inv(%d): a*a^-1 = %d", a, got)
		}
	}
	// Distributivity on a sample grid.
	for a := 0; a < 256; a += 7 {
		for b := 0; b < 256; b += 11 {
			for c := 0; c < 256; c += 13 {
				left := gfMul(byte(a), byte(b)^byte(c))
				right := gfMul(byte(a), byte(b)) ^ gfMul(byte(a), byte(c))
				if left != right {
					t.Fatalf("distributivity fails at %d,%d,%d", a, b, c)
				}
			}
		}
	}
	// Division round-trips.
	for a := 0; a < 256; a += 5 {
		for b := 1; b < 256; b += 3 {
			q := gfDiv(byte(a), byte(b))
			if gfMul(q, byte(b)) != byte(a) {
				t.Fatalf("div(%d,%d) does not round-trip", a, b)
			}
		}
	}
}

func TestGFPow(t *testing.T) {
	if gfPow(0, 0) != 1 || gfPow(0, 5) != 0 || gfPow(7, 0) != 1 {
		t.Fatal("gfPow edge cases")
	}
	// gfPow(a, n) == repeated multiplication.
	for a := 1; a < 256; a += 17 {
		acc := byte(1)
		for n := 0; n < 10; n++ {
			if got := gfPow(byte(a), n); got != acc {
				t.Fatalf("gfPow(%d,%d) = %d, want %d", a, n, got, acc)
			}
			acc = gfMul(acc, byte(a))
		}
	}
}

func mkShards(rng *rand.Rand, k, size int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

func TestRSRoundTripAllErasurePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rs, err := NewRS(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := mkShards(rng, 4, 64)
	repair, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Try every pattern of up to 2 erasures among the 6 shards.
	n := 6
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			shards := make([][]byte, n)
			for i := 0; i < 4; i++ {
				shards[i] = data[i]
			}
			shards[4], shards[5] = repair[0], repair[1]
			shards[a] = nil
			shards[b] = nil
			got, err := rs.Reconstruct(shards)
			if err != nil {
				t.Fatalf("erasures (%d,%d): %v", a, b, err)
			}
			for i := 0; i < 4; i++ {
				if !bytes.Equal(got[i], data[i]) {
					t.Fatalf("erasures (%d,%d): shard %d mismatch", a, b, i)
				}
			}
		}
	}
}

func TestRSTooManyErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs, _ := NewRS(3, 1)
	data := mkShards(rng, 3, 16)
	repair, _ := rs.Encode(data)
	shards := [][]byte{nil, nil, data[2], repair[0]}
	if _, err := rs.Reconstruct(shards); !errors.Is(err, ErrShortBlock) {
		t.Fatalf("err = %v, want ErrShortBlock", err)
	}
}

func TestRSParamValidation(t *testing.T) {
	if _, err := NewRS(0, 1); !errors.Is(err, ErrBadParams) {
		t.Error("k=0 should fail")
	}
	if _, err := NewRS(200, 100); !errors.Is(err, ErrBadParams) {
		t.Error("k+m>255 should fail")
	}
	rs, _ := NewRS(2, 1)
	if _, err := rs.Encode([][]byte{{1}}); !errors.Is(err, ErrBadParams) {
		t.Error("wrong shard count should fail")
	}
	if _, err := rs.Encode([][]byte{{1}, {1, 2}}); !errors.Is(err, ErrShardSize) {
		t.Error("uneven shards should fail")
	}
	if _, err := rs.Reconstruct([][]byte{nil, nil}); !errors.Is(err, ErrBadParams) {
		t.Error("wrong reconstruct count should fail")
	}
	if _, err := rs.Reconstruct([][]byte{nil, nil, nil}); err == nil {
		t.Error("all-nil reconstruct should fail")
	}
	if _, err := rs.Reconstruct([][]byte{{1}, {1, 2}, nil}); !errors.Is(err, ErrShardSize) {
		t.Error("uneven reconstruct should fail")
	}
}

// Property: for random (k, m, erasure pattern with <= m losses), RS always
// reconstructs exactly.
func TestRSProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(kRaw, mRaw uint8, seed int64) bool {
		k := int(kRaw%10) + 1
		m := int(mRaw % 5)
		rs, err := NewRS(k, m)
		if err != nil {
			return false
		}
		local := rand.New(rand.NewSource(seed))
		data := mkShards(local, k, 32)
		repair, err := rs.Encode(data)
		if err != nil {
			return false
		}
		shards := make([][]byte, k+m)
		for i := 0; i < k; i++ {
			shards[i] = data[i]
		}
		copy(shards[k:], repair)
		// Erase up to m random shards.
		for _, idx := range local.Perm(k + m)[:m] {
			shards[idx] = nil
		}
		got, err := rs.Reconstruct(shards)
		if err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(got[i], data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestResidualLoss(t *testing.T) {
	// No repair: residual loss = P(any symbol lost) for a block to be
	// incomplete; with k=1, m=0 it's exactly p.
	if got := ResidualLoss(1, 0, 0.1); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("ResidualLoss(1,0,0.1) = %v, want 0.1", got)
	}
	// Adding repair strictly reduces residual loss.
	prev := 1.0
	for m := 0; m <= 4; m++ {
		cur := ResidualLoss(10, m, 0.05)
		if cur >= prev {
			t.Errorf("residual loss did not decrease at m=%d: %v >= %v", m, cur, prev)
		}
		prev = cur
	}
	// p=0 -> 0; p=1 -> 1.
	if ResidualLoss(5, 2, 0) != 0 {
		t.Error("p=0 should give 0")
	}
	if got := ResidualLoss(5, 2, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("p=1 should give 1, got %v", got)
	}
}

func TestResidualLossMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k, m = 8, 2
	const p = 0.1
	const trials = 200000
	fail := 0
	for i := 0; i < trials; i++ {
		lost := 0
		for j := 0; j < k+m; j++ {
			if rng.Float64() < p {
				lost++
			}
		}
		if lost > m {
			fail++
		}
	}
	want := ResidualLoss(k, m, p)
	got := float64(fail) / trials
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Monte Carlo %v vs analytic %v", got, want)
	}
}
