package main

import (
	"encoding/binary"
	"math/rand"
)

// Every request carries a seeded body and, in its last 8 bytes, the
// call's sequence number; every response is derived from the whole
// request, so a response that verifies proves the bytes made the round
// trip and were answered for this call and no other.

const (
	respLen = 64
	seqLen  = 8

	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds p into the running FNV-1a state h.
func fnv1a(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// answer is the server handler's result for req: the request's sequence
// number, the FNV-1a digest of the whole request, and 48 bytes expanded
// from the digest so the response has the size of a pose result.
func answer(req []byte) []byte {
	out := make([]byte, respLen)
	if len(req) >= seqLen {
		copy(out, req[len(req)-seqLen:])
	}
	fill(out[seqLen:], fnv1a(fnvOffset, req))
	return out
}

// fill writes h and its xorshift successors into dst.
func fill(dst []byte, h uint64) {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], h)
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
	}
}

// body is one generated request payload. prefix is the FNV-1a state
// after every byte but the trailing sequence number, so the client checks
// a response with 8 more rounds instead of rehashing the request.
type body struct {
	data   []byte
	prefix uint64
}

// payloadPool is the seeded request population of one workload.
type payloadPool struct {
	bodies []body
	maxLen int
}

// sizeWeight is one entry of a workload's request-size mix.
type sizeWeight struct {
	size   int
	weight int
}

// bodiesPerWeight is how many distinct bodies the pool holds per unit of
// weight: enough that consecutive calls differ, small enough to stay in
// cache so the generator measures the stack, not its own memory.
const bodiesPerWeight = 8

// newPayloadPool draws the pool from seed. A call picks uniformly from
// the pool, so sizes appear in proportion to their weights.
func newPayloadPool(seed int64, mix []sizeWeight) *payloadPool {
	rng := rand.New(rand.NewSource(seed))
	p := &payloadPool{}
	for _, sw := range mix {
		for i := 0; i < sw.weight*bodiesPerWeight; i++ {
			data := make([]byte, sw.size)
			rng.Read(data) //nolint:errcheck // math/rand never fails
			p.bodies = append(p.bodies, body{data: data, prefix: fnv1a(fnvOffset, data[:sw.size-seqLen])})
		}
		if sw.size > p.maxLen {
			p.maxLen = sw.size
		}
	}
	return p
}

// stamp copies body k into buf with seq in its last 8 bytes and returns
// the request and the digest a correct response must carry.
func (p *payloadPool) stamp(buf []byte, k int, seq uint64) (req []byte, digest uint64) {
	b := p.bodies[k]
	req = buf[:len(b.data)]
	copy(req, b.data)
	tail := req[len(req)-seqLen:]
	binary.LittleEndian.PutUint64(tail, seq)
	return req, fnv1a(b.prefix, tail)
}

// verify reports whether resp is answer(req) for the request stamp built
// with seq and digest.
func verify(resp []byte, seq, digest uint64) bool {
	if len(resp) != respLen || binary.LittleEndian.Uint64(resp) != seq {
		return false
	}
	var want [respLen - seqLen]byte
	fill(want[:], digest)
	return string(resp[seqLen:]) == string(want[:])
}
