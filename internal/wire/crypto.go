package wire

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Section VI-G: "Heavy usage of cryptography should be performed for every
// communication." When Config.Key is set, every frame's payload is sealed
// with AES-GCM and the fixed header is authenticated as associated data,
// so a middlebox can neither read application data nor splice headers onto
// other payloads. ACK frames (empty payload) still carry a 16-byte tag, so
// acknowledgment forgery is also prevented.
//
// Sealed wire layout: header || nonce(12) || ciphertext(plaintext+16).
//
// Nonce scheme: the full 96-bit nonce is drawn from crypto/rand once at
// sealer construction and then incremented as a single 96-bit counter
// (little-endian: a 64-bit low word carrying into a 32-bit high word), so
// the only per-packet cost is an atomic increment — no rand.Read syscall
// on the send path. Many sealers share one pre-shared key (one per Conn
// and per mux peer); with a random *starting point* two sealers reuse a
// nonce only if their counter ranges overlap, probability on the order of
// msgs·sealers²/2^96 — negligible at fleet scale. (A fixed-prefix scheme
// with counters starting at 0 would instead collide whenever two sealers
// drew the same 32-bit prefix, a ~2^16-instantiation birthday bound.)
// GCM only requires nonce uniqueness per key, never unpredictability, and
// the receiver treats the 12 bytes as opaque, so frames sealed under the
// old fully-random scheme interoperate unchanged.

const (
	nonceLen   = 12
	nonceLoLen = 8 // low counter word; the high word fills the rest
	gcmTagLen  = 16
	sealedOver = nonceLen + gcmTagLen
)

// ErrBadKey is returned for key lengths other than 16, 24 or 32 bytes.
var ErrBadKey = errors.New("wire: key must be 16, 24 or 32 bytes")

// ErrAuthFailed is returned when a sealed frame fails authentication.
var ErrAuthFailed = errors.New("wire: frame authentication failed")

type sealer struct {
	aead cipher.AEAD
	// 96-bit nonce counter, randomly seeded (see the scheme note above).
	// nonceLo is the low 64 bits; a wrap carries into nonceHi.
	nonceLo atomic.Uint64
	nonceHi atomic.Uint32
}

func newSealer(key []byte) (*sealer, error) {
	switch len(key) {
	case 16, 24, 32:
	default:
		return nil, fmt.Errorf("%w: got %d", ErrBadKey, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("wire: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("wire: gcm: %w", err)
	}
	s := &sealer{aead: aead}
	var seed [nonceLen]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("wire: nonce seed: %w", err)
	}
	s.nonceLo.Store(binary.LittleEndian.Uint64(seed[:nonceLoLen]))
	s.nonceHi.Store(binary.LittleEndian.Uint32(seed[nonceLoLen:]))
	return s, nil
}

// putNonce writes the next nonce (low word || high word, little-endian)
// into dst, which must be nonceLen bytes. The increment is a 96-bit add:
// the goroutine whose Add wraps the low word performs the carry exactly
// once. A reader racing that carry could emit an old-high/new-low nonce,
// but that repeats a value from 2^64 increments earlier — a horizon no
// deployment reaches (58,000 years at 10M frames/s).
func (s *sealer) putNonce(dst []byte) {
	lo := s.nonceLo.Add(1)
	if lo == 0 {
		s.nonceHi.Add(1)
	}
	binary.LittleEndian.PutUint64(dst, lo)
	binary.LittleEndian.PutUint32(dst[nonceLoLen:], s.nonceHi.Load())
}

// appendSealedFrame encodes the complete sealed frame — header, nonce,
// ciphertext, tag — for h and payload into dst and returns the extended
// slice. With dst capacity ≥ headerLen(h)+sealedOver+len(payload) it
// allocates nothing: the header is written in place, its bytes (minus the
// trailing payload-length field) serve as the AAD, and AES-GCM seals the
// payload directly after the nonce. This is the only sealing path the
// send pipeline uses; seal below is the historical buffer-returning form
// kept for tests and header-compat tooling.
func (s *sealer) appendSealedFrame(dst []byte, h Header, payload []byte) ([]byte, error) {
	sealedLen := sealedOver + len(payload)
	if sealedLen > maxPayloadOf(h.Type) {
		return dst, fmt.Errorf("%w: %d bytes sealed", ErrOversize, sealedLen)
	}
	if err := checkHeader(h); err != nil {
		return dst, err
	}
	hlen := headerLen(h)
	base := len(dst)
	dst = append(dst, make([]byte, hlen+nonceLen)...)
	putHeader(dst[base:base+hlen], h, sealedLen)
	aad := dst[base : base+hlen-2] // payload length excluded, as in headerAAD
	nonce := dst[base+hlen : base+hlen+nonceLen]
	s.putNonce(nonce)
	// Seal appends ciphertext+tag after the nonce; the aad region is
	// strictly before the append point, so the in-place overlap is safe.
	return s.aead.Seal(dst, nonce, payload, aad), nil
}

// aadPool recycles the scratch buffers openInPlace renders associated
// data into. The AAD is at most a traced header with a full
// acknowledgement block, but passing a stack array through the cipher.AEAD
// interface forces it to escape, so a pooled buffer is what keeps the recv
// leg at zero allocations.
var aadPool = sync.Pool{New: func() any {
	b := make([]byte, HeaderLenTraced+maxPathExt+maxAckBlockLen)
	return &b
}}

// renderAAD writes h's authenticated header bytes (everything except the
// trailing 2-byte payload-length field, exactly as headerAAD defines)
// into dst, which must have capacity ≥ headerLen(h), and returns the AAD
// slice. Unlike headerAAD it allocates nothing.
func renderAAD(dst []byte, h Header) []byte {
	hlen := headerLen(h)
	dst = dst[:hlen]
	putHeader(dst, h, 0) // length field is stripped below, value irrelevant
	return dst[:hlen-2]
}

// openInPlace authenticates and decrypts a sealed payload, writing the
// plaintext over the ciphertext region of sealed — the caller's buffer is
// consumed either way, which is exactly the recv-path contract (delivery
// buffers are loaned for the duration of the callback). This is the
// zero-allocation twin of appendSealedFrame; open below is the historical
// fresh-buffer form kept for tests and callers that retain the payload.
func (s *sealer) openInPlace(h Header, sealed []byte) ([]byte, error) {
	if len(sealed) < sealedOver {
		return nil, ErrAuthFailed
	}
	aadBuf := aadPool.Get().(*[]byte)
	aad := renderAAD(*aadBuf, h)
	plain, err := s.aead.Open(sealed[nonceLen:nonceLen], sealed[:nonceLen], sealed[nonceLen:], aad)
	aadPool.Put(aadBuf)
	if err != nil {
		return nil, ErrAuthFailed
	}
	return plain, nil
}

// maxPlain reports the largest plaintext that still fits a frame when
// sealing is active.
func maxPlain(sealed bool) int {
	if sealed {
		return MaxPayload - sealedOver
	}
	return MaxPayload
}
