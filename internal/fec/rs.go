package fec

import (
	"errors"
	"fmt"
)

// Errors returned by the codes.
var (
	ErrShortBlock = errors.New("fec: not enough shards to reconstruct")
	ErrShardSize  = errors.New("fec: shards must be non-empty and equally sized")
	ErrBadParams  = errors.New("fec: invalid code parameters")
	ErrSingular   = errors.New("fec: singular decode matrix")
)

// RS is a systematic Reed–Solomon erasure code with K data shards and M
// repair shards. Any K of the K+M shards reconstruct the original data.
type RS struct {
	K, M   int
	matrix [][]byte // M x K Vandermonde coefficient rows for repair shards
}

// NewRS builds a code with k data and m repair shards (k >= 1, m >= 0,
// k+m <= 255).
func NewRS(k, m int) (*RS, error) {
	if k < 1 || m < 0 || k+m > 255 {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrBadParams, k, m)
	}
	// Build the full (k+m) x k Vandermonde matrix with distinct evaluation
	// points 0..k+m-1. Any k of its rows form a Vandermonde matrix with
	// distinct nodes and are therefore invertible. Right-multiplying by the
	// inverse of the top k x k block makes the code systematic while
	// preserving that any-k-rows-invertible property.
	vand := make([][]byte, k+m)
	for i := range vand {
		row := make([]byte, k)
		for j := 0; j < k; j++ {
			row[j] = gfPow(byte(i), j)
		}
		vand[i] = row
	}
	topInv, err := invertMatrix(vand[:k])
	if err != nil {
		return nil, err
	}
	rs := &RS{K: k, M: m, matrix: make([][]byte, m)}
	for i := 0; i < m; i++ {
		row := make([]byte, k)
		for j := 0; j < k; j++ {
			var acc byte
			for l := 0; l < k; l++ {
				acc ^= gfMul(vand[k+i][l], topInv[l][j])
			}
			row[j] = acc
		}
		rs.matrix[i] = row
	}
	return rs, nil
}

// Encode produces the M repair shards for the given K equally sized data
// shards.
func (rs *RS) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != rs.K {
		return nil, fmt.Errorf("%w: got %d data shards, want %d", ErrBadParams, len(data), rs.K)
	}
	size, err := shardSize(data)
	if err != nil {
		return nil, err
	}
	repair := make([][]byte, rs.M)
	for i := 0; i < rs.M; i++ {
		repair[i] = make([]byte, size)
		for j := 0; j < rs.K; j++ {
			mulSlice(repair[i], data[j], rs.matrix[i][j])
		}
	}
	return repair, nil
}

// Reconstruct recovers the original K data shards. shards must have length
// K+M; missing shards are nil. It returns the K data shards (reusing the
// present ones).
func (rs *RS) Reconstruct(shards [][]byte) ([][]byte, error) {
	if len(shards) != rs.K+rs.M {
		return nil, fmt.Errorf("%w: got %d shards, want %d", ErrBadParams, len(shards), rs.K+rs.M)
	}
	present := 0
	size := -1 // -1, not 0: a zero-length first shard must not re-arm the init branch
	for _, s := range shards {
		if s != nil {
			present++
			if size < 0 {
				size = len(s)
			} else if len(s) != size {
				return nil, ErrShardSize
			}
		}
	}
	if size <= 0 {
		return nil, ErrShardSize
	}
	if present < rs.K {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrShortBlock, present, rs.K)
	}

	// Fast path: all data shards present.
	missingData := false
	for i := 0; i < rs.K; i++ {
		if shards[i] == nil {
			missingData = true
			break
		}
	}
	if !missingData {
		return shards[:rs.K], nil
	}

	// Build a KxK system from the first K available shards: each available
	// shard corresponds to one row of the generator matrix (identity rows
	// for data shards, Vandermonde rows for repair shards).
	rows := make([][]byte, 0, rs.K)
	rhs := make([][]byte, 0, rs.K)
	for idx := 0; idx < rs.K+rs.M && len(rows) < rs.K; idx++ {
		if shards[idx] == nil {
			continue
		}
		row := make([]byte, rs.K)
		if idx < rs.K {
			row[idx] = 1
		} else {
			copy(row, rs.matrix[idx-rs.K])
		}
		rows = append(rows, row)
		rhs = append(rhs, shards[idx])
	}

	inv, err := invertMatrix(rows)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, rs.K)
	for i := 0; i < rs.K; i++ {
		if shards[i] != nil {
			out[i] = shards[i]
			continue
		}
		buf := make([]byte, size)
		for j := 0; j < rs.K; j++ {
			mulSlice(buf, rhs[j], inv[i][j])
		}
		out[i] = buf
	}
	return out, nil
}

// invertMatrix inverts a KxK matrix over GF(2^8) by Gauss–Jordan.
func invertMatrix(m [][]byte) ([][]byte, error) {
	n := len(m)
	a := make([][]byte, n)
	inv := make([][]byte, n)
	for i := range m {
		a[i] = append([]byte(nil), m[i]...)
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		// Scale pivot row to 1.
		p := a[col][col]
		pinv := gfInv(p)
		for j := 0; j < n; j++ {
			a[col][j] = gfMul(a[col][j], pinv)
			inv[col][j] = gfMul(inv[col][j], pinv)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := 0; j < n; j++ {
				a[r][j] ^= gfMul(f, a[col][j])
				inv[r][j] ^= gfMul(f, inv[col][j])
			}
		}
	}
	return inv, nil
}

func shardSize(shards [][]byte) (int, error) {
	if len(shards) == 0 || len(shards[0]) == 0 {
		return 0, ErrShardSize
	}
	size := len(shards[0])
	for _, s := range shards[1:] {
		if len(s) != size {
			return 0, ErrShardSize
		}
	}
	return size, nil
}

// ResidualLoss returns the probability that a block of k data + m repair
// symbols cannot be fully reconstructed when each symbol is independently
// lost with probability p — i.e. more than m of the k+m symbols are lost.
// This is the planning formula ARTP uses to size FEC for the loss-recovery
// class.
func ResidualLoss(k, m int, p float64) float64 {
	n := k + m
	// P(block unrecoverable) = sum_{i=m+1..n} C(n,i) p^i (1-p)^(n-i).
	var sum float64
	for i := m + 1; i <= n; i++ {
		sum += binom(n, i) * pow(p, i) * pow(1-p, n-i)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1.0
	for i := 0; i < k; i++ {
		res = res * float64(n-i) / float64(i+1)
	}
	return res
}

func pow(x float64, n int) float64 {
	res := 1.0
	for i := 0; i < n; i++ {
		res *= x
	}
	return res
}
