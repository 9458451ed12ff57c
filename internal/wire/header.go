// Package wire is the real-network implementation of the ARTP protocol
// (package core holds the protocol rationale and the vocabulary both
// engines share: Class, Priority, Controller and the receive-side
// core.SeqWindow).
// It runs over UDP sockets, as Section VI-H of the paper recommends: "the
// actual implementation of this protocol may be done on top of UDP at the
// application level, making it easier to integrate in applications as an
// external library".
//
// The wire format is a fixed little-endian header followed by the payload.
// Versions 1 and 2 share the 26-byte legacy layout:
//
//	off size field
//	0   2    magic 0xAR7P (0xA27B)
//	2   1    version (1 or 2)
//	3   1    frame type
//	4   2    stream id
//	6   1    class
//	7   1    priority
//	8   8    sequence number
//	16  8    send timestamp, microseconds since the conn epoch
//	24  2    payload length
//	26  ...  payload
//
// Version 3 extends the header with trace context for cross-host frame
// tracing. The payload length stays the LAST two header bytes so that
// sealing (which authenticates everything before the payload length) is
// layout-independent:
//
//	0   24   identical to the legacy prefix (version byte = 3)
//	24  8    trace id
//	32  8    span id of the sender's span (parent for the receiver)
//	40  2    payload length
//	42  ...  payload
//
// Encoders emit version 3 only when a frame actually carries trace
// context; untraced frames remain byte-identical to version 1, so a v3
// sender interoperates with a legacy decoder until tracing is switched
// on. Decoders accept all three versions.
//
// ACK frames reuse the header with the acked stream/seq and echo the data
// frame's send timestamp in the timestamp field. NACK frames carry a list
// of missing sequence numbers as the payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame types. Ping/Pong are the keepalive heartbeat: a ping carries the
// sender's timestamp, the pong echoes it; both have empty payloads (but
// still carry an authentication tag when sealing is on, so liveness
// cannot be forged).
const (
	TypeData = 1
	TypeAck  = 2
	TypeNack = 3
	TypePing = 4
	TypePong = 5
)

// Codec constants.
const (
	Magic           = 0xA27B
	Version         = 1
	VersionTraced   = 3
	HeaderLen       = 26   // legacy (v1/v2) header length
	HeaderLenTraced = 42   // v3 header length: legacy prefix + trace ids
	MaxPayload      = 1200 // keeps frames under typical path MTU
)

// headerLen returns the encoded header length for a header's wire
// version, which is determined by whether it carries trace context.
func headerLen(h Header) int {
	if h.TraceID|h.SpanID != 0 {
		return HeaderLenTraced
	}
	return HeaderLen
}

// Codec errors.
var (
	ErrShortFrame = errors.New("wire: frame too short")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unknown frame type")
	ErrOversize   = errors.New("wire: payload exceeds MaxPayload")
	ErrTruncated  = errors.New("wire: payload truncated")
)

// Header is the decoded fixed header. TraceID and SpanID are zero on
// untraced (v1/v2) frames; a nonzero TraceID marks the frame as part of
// a distributed trace and SpanID names the sender's span, which becomes
// the parent of any span the receiver starts for this frame.
type Header struct {
	Type       uint8
	Stream     uint16
	Class      uint8
	Prio       uint8
	Seq        int64
	SendMicro  uint64
	PayloadLen uint16
	TraceID    uint64
	SpanID     uint64
}

// AppendFrame serializes a frame (header + payload) into dst and returns
// the extended slice. Frames with trace context encode as version 3;
// untraced frames stay byte-identical to version 1.
func AppendFrame(dst []byte, h Header, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrOversize, len(payload))
	}
	switch h.Type {
	case TypeData, TypeAck, TypeNack, TypePing, TypePong:
	default:
		return dst, fmt.Errorf("%w: %d", ErrBadType, h.Type)
	}
	n := headerLen(h)
	base := len(dst)
	dst = append(dst, make([]byte, n)...)
	putHeader(dst[base:base+n], h, len(payload))
	dst = append(dst, payload...)
	return dst, nil
}

// putHeader writes the wire header for h into dst, which must be exactly
// headerLen(h) bytes, declaring payloadLen. It allocates nothing — the
// fast path encodes straight into a pooled frame buffer — and performs no
// validation; callers (AppendFrame, the sealer) validate first.
func putHeader(dst []byte, h Header, payloadLen int) {
	binary.LittleEndian.PutUint16(dst[0:], Magic)
	dst[2] = Version
	dst[3] = h.Type
	binary.LittleEndian.PutUint16(dst[4:], h.Stream)
	dst[6] = h.Class
	dst[7] = h.Prio
	binary.LittleEndian.PutUint64(dst[8:], uint64(h.Seq))
	binary.LittleEndian.PutUint64(dst[16:], h.SendMicro)
	if len(dst) == HeaderLenTraced {
		dst[2] = VersionTraced
		binary.LittleEndian.PutUint64(dst[24:], h.TraceID)
		binary.LittleEndian.PutUint64(dst[32:], h.SpanID)
	}
	binary.LittleEndian.PutUint16(dst[len(dst)-2:], uint16(payloadLen))
}

// DecodeFrame parses one frame from buf, returning the header and a
// subslice of buf holding the payload. Versions 1 and 2 decode as the
// legacy 26-byte layout; version 3 additionally yields trace context.
func DecodeFrame(buf []byte) (Header, []byte, error) {
	if len(buf) < HeaderLen {
		return Header{}, nil, ErrShortFrame
	}
	if binary.LittleEndian.Uint16(buf[0:]) != Magic {
		return Header{}, nil, ErrBadMagic
	}
	hlen := HeaderLen
	switch buf[2] {
	case 1, 2:
	case VersionTraced:
		hlen = HeaderLenTraced
		if len(buf) < hlen {
			return Header{}, nil, ErrShortFrame
		}
	default:
		return Header{}, nil, fmt.Errorf("%w: %d", ErrBadVersion, buf[2])
	}
	h := Header{
		Type:      buf[3],
		Stream:    binary.LittleEndian.Uint16(buf[4:]),
		Class:     buf[6],
		Prio:      buf[7],
		Seq:       int64(binary.LittleEndian.Uint64(buf[8:])),
		SendMicro: binary.LittleEndian.Uint64(buf[16:]),
	}
	if hlen == HeaderLenTraced {
		h.TraceID = binary.LittleEndian.Uint64(buf[24:])
		h.SpanID = binary.LittleEndian.Uint64(buf[32:])
	}
	h.PayloadLen = binary.LittleEndian.Uint16(buf[hlen-2:])
	switch h.Type {
	case TypeData, TypeAck, TypeNack, TypePing, TypePong:
	default:
		return Header{}, nil, fmt.Errorf("%w: %d", ErrBadType, h.Type)
	}
	// Mirror the encoder's bound: no conforming sender emits a payload
	// above MaxPayload, so anything larger is corruption or an attack, and
	// accepting it would yield headers that cannot round-trip.
	if int(h.PayloadLen) > MaxPayload {
		return Header{}, nil, fmt.Errorf("%w: %d bytes", ErrOversize, h.PayloadLen)
	}
	end := hlen + int(h.PayloadLen)
	if len(buf) < end {
		return Header{}, nil, ErrTruncated
	}
	return h, buf[hlen:end], nil
}

// MaxNackEntries is the most missing-sequence entries one NACK payload
// can carry and still fit inside MaxPayload. An unclamped gap list would
// emit an oversized datagram that the peer's DecodeFrame bounds check
// rejects — silently losing the whole NACK — so the encoder clamps and
// senders chunk instead.
const MaxNackEntries = (MaxPayload - 2) / 8

// EncodeNackPayload serializes a list of missing sequence numbers,
// clamping to the MaxNackEntries that fit one frame. Callers with longer
// gap lists send several NACKs (see AppendNackPayload for the
// allocation-free variant used on the hot path).
func EncodeNackPayload(missing []int64) []byte {
	if len(missing) > MaxNackEntries {
		missing = missing[:MaxNackEntries]
	}
	return AppendNackPayload(nil, missing)
}

// AppendNackPayload serializes up to MaxNackEntries of missing into dst
// and returns the extended slice. Entries beyond the clamp are the
// caller's to re-send in a following NACK.
func AppendNackPayload(dst []byte, missing []int64) []byte {
	if len(missing) > MaxNackEntries {
		missing = missing[:MaxNackEntries]
	}
	base := len(dst)
	dst = append(dst, make([]byte, 2+8*len(missing))...)
	binary.LittleEndian.PutUint16(dst[base:], uint16(len(missing)))
	for i, s := range missing {
		binary.LittleEndian.PutUint64(dst[base+2+8*i:], uint64(s))
	}
	return dst
}

// DecodeNackPayload parses a NACK payload. Counts above MaxNackEntries
// are rejected: no conforming sender emits them (the encoder clamps), so
// they are corruption, and accepting one would decode entries that can
// never round-trip through a frame.
func DecodeNackPayload(p []byte) ([]int64, error) {
	if len(p) < 2 {
		return nil, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(p))
	if n > MaxNackEntries {
		return nil, fmt.Errorf("%w: %d NACK entries", ErrOversize, n)
	}
	if len(p) < 2+8*n {
		return nil, ErrTruncated
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[2+8*i:]))
	}
	return out, nil
}
