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
// Byte 2 is a flag byte, 1 | traced·2 | acks·4 | path·8 (flagBase,
// flagTraced, flagAcks, flagPath). The base bit is always set; each further
// bit inserts an extension before the payload length, which stays the LAST
// two header bytes so that sealing (which authenticates everything before
// the payload length) is layout-independent. A byte without the base bit,
// or with a bit above path, is ErrBadFlags. With no extension the header is
// 26 bytes:
//
//	off size field
//	0   2    magic 0xAR7P (0xA27B)
//	2   1    flags 1 | traced·2 | acks·4 (here 1)
//	3   1    frame type
//	4   2    stream id
//	6   1    class
//	7   1    priority
//	8   8    sequence number
//	16  8    send timestamp, microseconds since the conn epoch
//	24  2    payload length
//	26  ...  payload
//
// The traced bit, set when a frame carries trace context for cross-host
// frame tracing, inserts the ids:
//
//	0   24   the prefix above (flags 1|2)
//	24  8    trace id
//	32  8    span id of the sender's span (parent for the receiver)
//	40  2    payload length
//	42  ...  payload
//
// # Acknowledgements
//
// A frame of any type with the acks bit set carries an acknowledgement
// block between the trace ids (when present) and the payload length:
//
//	0   1    count n of ranges, 1..MaxAckRanges
//	1   8    echo: the send timestamp of the newest data frame acknowledged
//	9   4    hold: microseconds between that frame's arrival and this
//	         frame's departure
//	13  12n  ranges {stream id (2), first sequence (8), run length (2)}
//
// 25 bytes for one range, 109 for eight. A receiver owes an acknowledgement
// for every data frame and pays it on the next data frame going the other
// way (connCore.pop attaches everything owed to the next frame it sends). A pure TypeAck frame — a header, a block, no payload — leaves only
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
// associated data — it cannot be forged or altered — and travels in the
// clear like the rest of the header.
//
// # Paths
//
// Every frame of a multipath conn (DialPaths, DESIGN.md §3i) sets the path
// bit, which inserts the path extension first, right after the 24-byte
// prefix, so that a server's Mux finds the session at a fixed offset:
//
//	0   8    session id: the conn, whichever access link carried the frame
//	8   1    path id (0..127) | grouped·128
//	9   4    FEC group (nonzero), when the grouped bit is set
//	13  1    index of the frame in its group, when the grouped bit is set
//
// A grouped data frame is a member of a cross-path FEC group, whose repair
// shards travel as TypeParity frames on another path (pathfec.go has their
// payload). A frame without the path bit encodes byte for byte as it did
// before multipath moved into the conn.
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
	// TypeParity carries one Reed–Solomon repair shard of a cross-path FEC
	// group (pathfec.go); only a multipath conn sends one.
	TypeParity = 6
)

// Codec constants.
const (
	Magic           = 0xA27B
	HeaderLen       = 26   // header length with no extension
	HeaderLenTraced = 42   // header length with trace ids (flags 1|2)
	MaxPayload      = 1200 // keeps frames under typical path MTU

	flagBase   = 1 // flag byte: always set
	flagTraced = 2 // flag byte: trace ids present
	flagAcks   = 4 // flag byte: acknowledgement block present
	flagPath   = 8 // flag byte: path extension present

	pathExtLen  = 9   // session + path id
	groupExtLen = 5   // FEC group + index, behind a grouped path id
	pathGrouped = 128 // path id bit: the FEC group follows
	maxPathExt  = pathExtLen + groupExtLen

	MaxAckRanges   = 8  // ranges one acknowledgement block can carry
	ackBlockFixed  = 13 // count + echo + hold
	ackRangeLen    = 12 // stream + first + run
	maxAckBlockLen = ackBlockFixed + MaxAckRanges*ackRangeLen
)

// headerLen returns the encoded header length for a header's flags, which
// are determined by whether it carries trace context and an
// acknowledgement block.
func headerLen(h Header) int {
	n := HeaderLen + len(h.Acks)
	if h.TraceID|h.SpanID != 0 {
		n += HeaderLenTraced - HeaderLen
	}
	if h.Session != 0 {
		n += pathExtLen
		if h.Group != 0 {
			n += groupExtLen
		}
	}
	return n
}

// maxPayloadOf bounds a frame's payload by its type: a parity frame's
// repair shard spans a whole data frame, header included.
func maxPayloadOf(typ uint8) int {
	if typ == TypeParity {
		return maxParityPayload
	}
	return MaxPayload
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
	ErrBadFlags   = errors.New("wire: unsupported flag byte")
	ErrBadType    = errors.New("wire: unknown frame type")
	ErrOversize   = errors.New("wire: payload exceeds MaxPayload")
	ErrTruncated  = errors.New("wire: payload truncated")
	ErrBadAcks    = errors.New("wire: malformed acknowledgement block")
	ErrBadPath    = errors.New("wire: malformed path extension")
)

// Header is the decoded fixed header. TraceID and SpanID are zero on
// untraced frames; a nonzero TraceID marks the frame as part of
// a distributed trace and SpanID names the sender's span, which becomes
// the parent of any span the receiver starts for this frame. Acks is the
// acknowledgement block riding on the frame, nil when there is none. A
// nonzero Session marks a multipath frame: Path names the access link that
// carries it, and a nonzero Group places a data frame at Index of a
// cross-path FEC group.
type Header struct {
	// The path fields sit in the others' padding: a band queue holds a
	// Header per frame.
	Type       uint8
	Path       uint8
	Stream     uint16
	Class      uint8
	Prio       uint8
	Index      uint8
	Seq        int64
	SendMicro  uint64
	PayloadLen uint16
	Group      uint32
	TraceID    uint64
	SpanID     uint64
	Acks       AckBlock
	Session    uint64
}

// checkHeader is the validation every encoder runs before putHeader.
func checkHeader(h Header) error {
	switch h.Type {
	case TypeData, TypeAck, TypeNack, TypePing, TypePong, TypeParity:
	default:
		return fmt.Errorf("%w: %d", ErrBadType, h.Type)
	}
	if len(h.Acks) > 0 && !h.Acks.valid() {
		return ErrBadAcks
	}
	if h.Path >= pathGrouped || h.Session == 0 && (h.Path != 0 || h.Group != 0) || h.Group == 0 && h.Index != 0 {
		return ErrBadPath
	}
	return nil
}

// AppendFrame serializes a frame (header + payload) into dst and returns
// the extended slice. The flag byte says which extensions follow the
// prefix: trace context, an acknowledgement block, both or neither.
func AppendFrame(dst []byte, h Header, payload []byte) ([]byte, error) {
	if len(payload) > maxPayloadOf(h.Type) {
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
	dst[2] = flagBase
	dst[3] = h.Type
	binary.LittleEndian.PutUint16(dst[4:], h.Stream)
	dst[6] = h.Class
	dst[7] = h.Prio
	binary.LittleEndian.PutUint64(dst[8:], uint64(h.Seq))
	binary.LittleEndian.PutUint64(dst[16:], h.SendMicro)
	off := HeaderLen - 2
	if h.Session != 0 {
		dst[2] |= flagPath
		binary.LittleEndian.PutUint64(dst[off:], h.Session)
		dst[off+8] = h.Path
		off += pathExtLen
		if h.Group != 0 {
			dst[off-1] |= pathGrouped
			binary.LittleEndian.PutUint32(dst[off:], h.Group)
			dst[off+4] = h.Index
			off += groupExtLen
		}
	}
	if h.TraceID|h.SpanID != 0 {
		dst[2] |= flagTraced
		binary.LittleEndian.PutUint64(dst[off:], h.TraceID)
		binary.LittleEndian.PutUint64(dst[off+8:], h.SpanID)
		off += 16
	}
	if len(h.Acks) > 0 {
		dst[2] |= flagAcks
		off += copy(dst[off:], h.Acks)
	}
	binary.LittleEndian.PutUint16(dst[off:], uint16(payloadLen))
}

// DecodeFrame parses one frame from buf, returning the header and a
// subslice of buf holding the payload. The path bit additionally yields
// the session and path, the traced bit trace context and the acks bit an
// acknowledgement block, also a subslice of buf.
func DecodeFrame(buf []byte) (Header, []byte, error) {
	if len(buf) < HeaderLen {
		return Header{}, nil, ErrShortFrame
	}
	if binary.LittleEndian.Uint16(buf[0:]) != Magic {
		return Header{}, nil, ErrBadMagic
	}
	flags := buf[2]
	if flags&flagBase == 0 || flags > flagBase|flagTraced|flagAcks|flagPath {
		return Header{}, nil, fmt.Errorf("%w: %d", ErrBadFlags, flags)
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
	if flags&flagPath != 0 {
		if hlen += pathExtLen; len(buf) < hlen {
			return Header{}, nil, ErrShortFrame
		}
		h.Session = binary.LittleEndian.Uint64(buf[hlen-11:])
		h.Path = buf[hlen-3] &^ pathGrouped
		if h.Session == 0 {
			return Header{}, nil, ErrBadPath
		}
		if buf[hlen-3]&pathGrouped != 0 {
			if hlen += groupExtLen; len(buf) < hlen {
				return Header{}, nil, ErrShortFrame
			}
			h.Group = binary.LittleEndian.Uint32(buf[hlen-7:])
			h.Index = buf[hlen-3]
			if h.Group == 0 {
				return Header{}, nil, ErrBadPath
			}
		}
	}
	if flags&flagTraced != 0 {
		if hlen += 16; len(buf) < hlen {
			return Header{}, nil, ErrShortFrame
		}
		h.TraceID = binary.LittleEndian.Uint64(buf[hlen-18:])
		h.SpanID = binary.LittleEndian.Uint64(buf[hlen-10:])
	}
	if flags&flagAcks != 0 {
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
	case TypeData, TypeAck, TypeNack, TypePing, TypePong, TypeParity:
	default:
		return Header{}, nil, fmt.Errorf("%w: %d", ErrBadType, h.Type)
	}
	// Mirror the encoder's bound: no conforming sender emits a payload
	// above its type's bound, so anything larger is corruption or an
	// attack, and accepting it would yield headers that cannot round-trip.
	if int(h.PayloadLen) > maxPayloadOf(h.Type) {
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

// nackLen checks a NACK payload and returns its entry count; the entries
// are read in place (nackEntry). Counts above MaxNackEntries are rejected:
// no conforming sender emits them (the encoder clamps), so they are
// corruption, and accepting one would decode entries that can never
// round-trip through a frame.
func nackLen(p []byte) (int, error) {
	if len(p) < 2 {
		return 0, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint16(p))
	if n > MaxNackEntries {
		return 0, fmt.Errorf("%w: %d NACK entries", ErrOversize, n)
	}
	if len(p) < 2+8*n {
		return 0, ErrTruncated
	}
	return n, nil
}

// nackEntry is entry i of a payload nackLen accepted.
func nackEntry(p []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(p[2+8*i:])) }
