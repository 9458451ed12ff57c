// Package fec implements forward error correction for the loss-recovery
// traffic class of the ARTP protocol (Section VI-C of the paper argues that
// in a latency-constrained context redundancy is preferable to ARQ whenever
// the RTT exceeds half the latency budget).
//
// The code is a systematic Reed–Solomon erasure code over GF(2^8) built on
// a Vandermonde matrix (k data + m repair symbols, recovers any m
// erasures).
package fec

// GF(2^8) arithmetic with the AES polynomial x^8+x^4+x^3+x+1 (0x11b),
// implemented with log/antilog tables generated at package init from the
// generator 0x03. Table generation is deterministic and pure.

var (
	gfExp [512]byte
	gfLog [256]int
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = i
		// Multiply x by the generator 0x03 = x+1: x*3 = x*2 ^ x.
		x = mulNoTable(x, 3)
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

// mulNoTable multiplies in GF(2^8) by shift-and-reduce (used only to build
// the tables).
func mulNoTable(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= 0x1b // x^8 ≡ x^4+x^3+x+1
		}
		b >>= 1
	}
	return p
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

// gfInv returns the multiplicative inverse of a nonzero element.
func gfInv(a byte) byte { return gfExp[255-gfLog[a]] }

// gfPow returns base^exp.
func gfPow(base byte, exp int) byte {
	if base == 0 {
		if exp == 0 {
			return 1
		}
		return 0
	}
	e := (gfLog[base] * exp) % 255
	if e < 0 {
		e += 255
	}
	return gfExp[e]
}

// mulSlice computes dst ^= c * src element-wise.
func mulSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range src {
			dst[i] ^= src[i]
		}
		return
	}
	lc := gfLog[c]
	for i := range src {
		if s := src[i]; s != 0 {
			dst[i] ^= gfExp[lc+gfLog[s]]
		}
	}
}
