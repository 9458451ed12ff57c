// Package wire is ARTP's one engine (package core holds the protocol's
// vocabulary: Class, Priority, Controller and the receive-side
// core.SeqWindow). It runs over any datagram transport: UDP sockets, as
// Section VI-H of the paper recommends — "the actual implementation of
// this protocol may be done on top of UDP at the application level, making
// it easier to integrate in applications as an external library" — and
// the simulator's links through internal/marsim, where every figure and
// study of the paper is measured.
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
// # Acknowledgements
//
// The version byte is 1 | traced·2 | acks·4. A frame of any type with the
// acks bit set carries an acknowledgement block between the trace ids (when
// present) and the payload length, which stays the last two header bytes:
//
//	0   1    count n of ranges, 1..MaxAckRanges
//	1   8    echo: the send timestamp of the newest data frame acknowledged
//	9   4    hold: microseconds between that frame's arrival and this
//	         frame's departure
//	13  12n  ranges {stream id (2), first sequence (8), run length (2)}
//
// 25 bytes for one range, 109 for eight. A receiver owes an acknowledgement
// for every data frame and pays it on the next data frame going the other
// way (Conn.popBurstLocked attaches everything owed to the first frame of a
// burst). A pure TypeAck frame — a header, a block, no payload — leaves only
// when nothing rides: once the oldest owed acknowledgement is
// clamp(SRTT/4, clock granule, 25 ms) old, and at once when the connection
// has no RTT sample yet (a one-way flow is acknowledged frame by frame), for
// a duplicate, for an out-of-order arrival (a gap opener or a hole filler:
// the sender's loss detection is waiting on it), and when all eight ranges
// are in use. Everything owed always leaves together.
//
// A range names the whole run of consecutively received sequences that the
// arrival extended, as far back as the 2048-frame receive window, not the
// one frame: an acknowledgement that gets through repairs every earlier one
// that was lost, at no extra bytes, so a dropped ack is not a retransmission.
// The sender takes one RTT sample per block, now − echo − hold, so a held
// acknowledgement does not inflate SRTT (the controller reacts to delay and
// rpc.Server anchors deadlines on SRTT/2). The block is part of the AEAD's
// associated data — it cannot be forged or altered — but travels in the
// clear like the rest of the header, because PathSet attributes the
// acknowledged bytes to the subflow that carried them.
//
// NACK frames carry a list of missing sequence numbers as the payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
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

	versionTracedBit = 2 // version byte flag: trace ids present
	versionAcksBit   = 4 // version byte flag: acknowledgement block present

	MaxAckRanges   = 8  // ranges one acknowledgement block can carry
	ackBlockFixed  = 13 // count + echo + hold
	ackRangeLen    = 12 // stream + first + run
	maxAckBlockLen = ackBlockFixed + MaxAckRanges*ackRangeLen
)

// headerLen returns the encoded header length for a header's wire
// version, which is determined by whether it carries trace context and an
// acknowledgement block.
func headerLen(h Header) int {
	n := HeaderLen + len(h.Acks)
	if h.TraceID|h.SpanID != 0 {
		n += HeaderLenTraced - HeaderLen
	}
	return n
}

// AckRange acknowledges Run consecutive sequences of one stream, starting
// at First.
type AckRange struct {
	Stream uint16
	First  int64
	Run    uint16
}

// AckBlock is an encoded acknowledgement block (layout in the package
// comment). A decoded Header's block aliases the datagram it came from.
type AckBlock []byte

// AppendAckBlock encodes a block of 1..MaxAckRanges ranges into dst.
func AppendAckBlock(dst []byte, echo uint64, hold time.Duration, ranges []AckRange) AckBlock {
	dst = append(dst, byte(len(ranges)))
	dst = binary.LittleEndian.AppendUint64(dst, echo)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(max(0, min(hold.Microseconds(), 1<<32-1))))
	for _, r := range ranges {
		dst = binary.LittleEndian.AppendUint16(dst, r.Stream)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.First))
		dst = binary.LittleEndian.AppendUint16(dst, r.Run)
	}
	return dst
}

// valid reports whether b is a whole block: a count in range and exactly
// that many ranges.
func (b AckBlock) valid() bool {
	return len(b) > 0 && b[0] >= 1 && b[0] <= MaxAckRanges && len(b) == ackBlockFixed+ackRangeLen*int(b[0])
}

// Len is the number of ranges; zero for a frame without a block.
func (b AckBlock) Len() int {
	if len(b) == 0 {
		return 0
	}
	return int(b[0])
}

// Echo is the send timestamp of the newest data frame acknowledged.
func (b AckBlock) Echo() uint64 { return binary.LittleEndian.Uint64(b[1:]) }

// Hold is how long the acknowledger sat on that frame's acknowledgement.
func (b AckBlock) Hold() time.Duration {
	return time.Duration(binary.LittleEndian.Uint32(b[9:])) * time.Microsecond
}

// Range decodes range i, 0 ≤ i < Len.
func (b AckBlock) Range(i int) AckRange {
	p := b[ackBlockFixed+ackRangeLen*i:]
	return AckRange{
		Stream: binary.LittleEndian.Uint16(p),
		First:  int64(binary.LittleEndian.Uint64(p[2:])),
		Run:    binary.LittleEndian.Uint16(p[10:]),
	}
}

// Covers reports whether the block acknowledges seq on stream.
func (b AckBlock) Covers(stream uint16, seq int64) bool {
	for i, n := 0, b.Len(); i < n; i++ {
		// Unsigned distance: a hostile First near either end of int64
		// cannot overflow into a match.
		if r := b.Range(i); r.Stream == stream && uint64(seq)-uint64(r.First) < uint64(r.Run) {
			return true
		}
	}
	return false
}

// Codec errors.
var (
	ErrShortFrame = errors.New("wire: frame too short")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unknown frame type")
	ErrOversize   = errors.New("wire: payload exceeds MaxPayload")
	ErrTruncated  = errors.New("wire: payload truncated")
	ErrBadAcks    = errors.New("wire: malformed acknowledgement block")
)

// Header is the decoded fixed header. TraceID and SpanID are zero on
// untraced (v1/v2) frames; a nonzero TraceID marks the frame as part of
// a distributed trace and SpanID names the sender's span, which becomes
// the parent of any span the receiver starts for this frame. Acks is the
// acknowledgement block riding on the frame, nil when there is none.
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
	Acks       AckBlock
}

// checkHeader is the validation every encoder runs before putHeader.
func checkHeader(h Header) error {
	switch h.Type {
	case TypeData, TypeAck, TypeNack, TypePing, TypePong:
	default:
		return fmt.Errorf("%w: %d", ErrBadType, h.Type)
	}
	if len(h.Acks) > 0 && !h.Acks.valid() {
		return ErrBadAcks
	}
	return nil
}

// AppendFrame serializes a frame (header + payload) into dst and returns
// the extended slice. Frames with trace context encode as version 3;
// a frame with neither trace context nor an acknowledgement block stays
// byte-identical to version 1.
func AppendFrame(dst []byte, h Header, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrOversize, len(payload))
	}
	if err := checkHeader(h); err != nil {
		return dst, err
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
	off := HeaderLen - 2
	if h.TraceID|h.SpanID != 0 {
		dst[2] |= versionTracedBit
		binary.LittleEndian.PutUint64(dst[off:], h.TraceID)
		binary.LittleEndian.PutUint64(dst[off+8:], h.SpanID)
		off += 16
	}
	if len(h.Acks) > 0 {
		dst[2] |= versionAcksBit
		off += copy(dst[off:], h.Acks)
	}
	binary.LittleEndian.PutUint16(dst[off:], uint16(payloadLen))
}

// DecodeFrame parses one frame from buf, returning the header and a
// subslice of buf holding the payload. Versions 1 and 2 decode as the
// legacy 26-byte layout; the traced bit additionally yields trace context
// and the acks bit an acknowledgement block, also a subslice of buf.
func DecodeFrame(buf []byte) (Header, []byte, error) {
	if len(buf) < HeaderLen {
		return Header{}, nil, ErrShortFrame
	}
	if binary.LittleEndian.Uint16(buf[0:]) != Magic {
		return Header{}, nil, ErrBadMagic
	}
	ver := buf[2]
	if ver == 2 {
		ver = Version // the legacy layout under its second number
	}
	if ver&Version == 0 || ver > Version|versionTracedBit|versionAcksBit {
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
	hlen := HeaderLen // grows by each extension found before the payload length
	if ver&versionTracedBit != 0 {
		if hlen += 16; len(buf) < hlen {
			return Header{}, nil, ErrShortFrame
		}
		h.TraceID = binary.LittleEndian.Uint64(buf[hlen-18:])
		h.SpanID = binary.LittleEndian.Uint64(buf[hlen-10:])
	}
	if ver&versionAcksBit != 0 {
		start := hlen - 2
		if hlen += ackBlockFixed; len(buf) < hlen {
			return Header{}, nil, ErrShortFrame
		}
		n := int(buf[start])
		if n < 1 || n > MaxAckRanges {
			return Header{}, nil, fmt.Errorf("%w: %d ranges", ErrBadAcks, n)
		}
		if hlen += ackRangeLen * n; len(buf) < hlen {
			return Header{}, nil, ErrShortFrame
		}
		h.Acks = AckBlock(buf[start : hlen-2 : hlen-2])
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
