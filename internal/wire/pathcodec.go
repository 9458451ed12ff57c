// Path-layer encapsulation: the wire format spoken between a client-side
// PathSet and a server-side PathRouter (Section VI-D: concurrent WiFi+LTE
// subflows). Path frames wrap ordinary ARTP frames so the Conn above never
// learns which access link carried a datagram; a legacy peer that receives
// one rejects it at DecodeFrame (different magic) and a PathRouter passes
// non-path datagrams through untouched, so single-path and multipath
// endpoints coexist on one socket.
//
// Every path frame starts with a fixed 13-byte little-endian prefix:
//
//	off size field
//	0   2    magic 0xA27C (distinct from the ARTP frame magic 0xA27B)
//	2   1    version (1)
//	3   1    kind (data / probe / probe-ack / parity)
//	4   8    session id (links the N subflows of one connection)
//	12  1    path id (which subflow carried this datagram)
//
// Kind-specific bodies follow:
//
//	data:   group uint32, index uint8, inner ARTP frame (rest of datagram).
//	        group 0 = not FEC-protected; otherwise (group, index) places the
//	        inner frame in a cross-path parity group.
//	probe:  seq uint32, sendMicro uint64, srttMicro uint32, intervalMicro
//	        uint32, state uint8 — the sender's liveness heartbeat plus its
//	        advertised view of this path (the receiver uses srtt/state/
//	        interval to rank return paths without measuring them itself).
//	probe-ack: identical body, echoed verbatim by the receiver.
//	parity: group uint32, index uint8 (>= k), k uint8, m uint8, actual
//	        uint8, shardLen uint16, shard bytes — one Reed–Solomon repair
//	        shard over the group's data shards (each data shard is the
//	        2-byte inner length, the inner frame, zero-padded to shardLen;
//	        indexes actual..k-1 are implicit all-zero shards when a group
//	        was flushed short).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Path frame kinds.
const (
	PathKindData     = 1
	PathKindProbe    = 2
	PathKindProbeAck = 3
	PathKindParity   = 4
)

// Path codec constants.
const (
	PathMagic      = 0xA27C
	PathVersion    = 1
	PathPrefixLen  = 13                           // magic + version + kind + session + path id
	pathDataOver   = 5                            // group + index
	PathDataOver   = PathPrefixLen + pathDataOver // total data encapsulation overhead
	pathProbeLen   = 21                           // seq + sendMicro + srttMicro + intervalMicro + state
	pathParityOver = 10                           // group + index + k + m + actual + shardLen
)

// Path codec errors.
var (
	ErrNotPathFrame  = errors.New("wire: not a path frame")
	ErrBadPathKind   = errors.New("wire: unknown path frame kind")
	ErrBadPathGroup  = errors.New("wire: invalid path parity group")
	ErrShortPath     = errors.New("wire: path frame too short")
	ErrPathTruncated = errors.New("wire: path frame truncated")
)

// PathHeader is the decoded fixed prefix of a path frame.
type PathHeader struct {
	Kind    uint8
	Session uint64
	PathID  uint8
}

// PathProbe is the body of a probe or probe-ack: a sequence number and
// send timestamp for RTT/liveness, plus the prober's advertisement of the
// path (smoothed RTT, probing cadence, state) so the far side can rank
// return paths it never measures itself.
type PathProbe struct {
	Seq           uint32
	SendMicro     uint64
	SRTTMicro     uint32
	IntervalMicro uint32
	State         uint8
}

// PathParityHeader describes one repair shard of a cross-path FEC group.
type PathParityHeader struct {
	Group    uint32
	Index    uint8 // shard index in [K, K+M)
	K, M     uint8
	Actual   uint8 // data shards actually sent; [Actual, K) are implicit zeros
	ShardLen uint16
}

// IsPathFrame reports whether buf begins with the path-layer magic and a
// supported version — the cheap dispatch test a shared socket runs on
// every inbound datagram.
func IsPathFrame(buf []byte) bool {
	return len(buf) >= PathPrefixLen &&
		binary.LittleEndian.Uint16(buf) == PathMagic &&
		buf[2] == PathVersion
}

// appendPathPrefix writes the fixed prefix.
func appendPathPrefix(dst []byte, kind uint8, session uint64, pathID uint8) []byte {
	base := len(dst)
	dst = append(dst, make([]byte, PathPrefixLen)...)
	binary.LittleEndian.PutUint16(dst[base:], PathMagic)
	dst[base+2] = PathVersion
	dst[base+3] = kind
	binary.LittleEndian.PutUint64(dst[base+4:], session)
	dst[base+12] = pathID
	return dst
}

// DecodePathHeader parses the fixed prefix, returning the header and the
// kind-specific body.
func DecodePathHeader(buf []byte) (PathHeader, []byte, error) {
	if len(buf) < PathPrefixLen {
		return PathHeader{}, nil, ErrShortPath
	}
	if binary.LittleEndian.Uint16(buf) != PathMagic || buf[2] != PathVersion {
		return PathHeader{}, nil, ErrNotPathFrame
	}
	h := PathHeader{
		Kind:    buf[3],
		Session: binary.LittleEndian.Uint64(buf[4:]),
		PathID:  buf[12],
	}
	switch h.Kind {
	case PathKindData, PathKindProbe, PathKindProbeAck, PathKindParity:
	default:
		return PathHeader{}, nil, fmt.Errorf("%w: %d", ErrBadPathKind, h.Kind)
	}
	return h, buf[PathPrefixLen:], nil
}

// AppendPathData encapsulates one inner ARTP frame for transmission on a
// subflow. group 0 marks the frame as outside any FEC group.
func AppendPathData(dst []byte, session uint64, pathID uint8, group uint32, index uint8, inner []byte) []byte {
	dst = appendPathPrefix(dst, PathKindData, session, pathID)
	base := len(dst)
	dst = append(dst, make([]byte, pathDataOver)...)
	binary.LittleEndian.PutUint32(dst[base:], group)
	dst[base+4] = index
	return append(dst, inner...)
}

// DecodePathData parses a data body into its FEC coordinates and the
// inner ARTP frame (a subslice of body).
func DecodePathData(body []byte) (group uint32, index uint8, inner []byte, err error) {
	if len(body) < pathDataOver {
		return 0, 0, nil, ErrPathTruncated
	}
	return binary.LittleEndian.Uint32(body), body[4], body[pathDataOver:], nil
}

// AppendPathProbe encodes a probe (kind PathKindProbe) or its echo (kind
// PathKindProbeAck).
func AppendPathProbe(dst []byte, kind uint8, session uint64, pathID uint8, p PathProbe) []byte {
	dst = appendPathPrefix(dst, kind, session, pathID)
	base := len(dst)
	dst = append(dst, make([]byte, pathProbeLen)...)
	binary.LittleEndian.PutUint32(dst[base:], p.Seq)
	binary.LittleEndian.PutUint64(dst[base+4:], p.SendMicro)
	binary.LittleEndian.PutUint32(dst[base+12:], p.SRTTMicro)
	binary.LittleEndian.PutUint32(dst[base+16:], p.IntervalMicro)
	dst[base+20] = p.State
	return dst
}

// DecodePathProbe parses a probe or probe-ack body.
func DecodePathProbe(body []byte) (PathProbe, error) {
	if len(body) < pathProbeLen {
		return PathProbe{}, ErrPathTruncated
	}
	return PathProbe{
		Seq:           binary.LittleEndian.Uint32(body),
		SendMicro:     binary.LittleEndian.Uint64(body[4:]),
		SRTTMicro:     binary.LittleEndian.Uint32(body[12:]),
		IntervalMicro: binary.LittleEndian.Uint32(body[16:]),
		State:         body[20],
	}, nil
}

// AppendPathParity encodes one repair shard.
func AppendPathParity(dst []byte, session uint64, pathID uint8, h PathParityHeader, shard []byte) []byte {
	dst = appendPathPrefix(dst, PathKindParity, session, pathID)
	base := len(dst)
	dst = append(dst, make([]byte, pathParityOver)...)
	binary.LittleEndian.PutUint32(dst[base:], h.Group)
	dst[base+4] = h.Index
	dst[base+5] = h.K
	dst[base+6] = h.M
	dst[base+7] = h.Actual
	binary.LittleEndian.PutUint16(dst[base+8:], h.ShardLen)
	return append(dst, shard...)
}

// DecodePathParity parses a parity body, validating the code geometry so
// a corrupted header cannot drive the reconstructor out of bounds.
func DecodePathParity(body []byte) (PathParityHeader, []byte, error) {
	if len(body) < pathParityOver {
		return PathParityHeader{}, nil, ErrPathTruncated
	}
	h := PathParityHeader{
		Group:    binary.LittleEndian.Uint32(body),
		Index:    body[4],
		K:        body[5],
		M:        body[6],
		Actual:   body[7],
		ShardLen: binary.LittleEndian.Uint16(body[8:]),
	}
	if h.Group == 0 || h.K == 0 || h.M == 0 || int(h.K)+int(h.M) > 255 ||
		h.Actual > h.K || h.Index < h.K || int(h.Index) >= int(h.K)+int(h.M) {
		return PathParityHeader{}, nil, fmt.Errorf("%w: group=%d k=%d m=%d actual=%d index=%d",
			ErrBadPathGroup, h.Group, h.K, h.M, h.Actual, h.Index)
	}
	// A shard holds a 2-byte length plus an inner frame; anything beyond a
	// full-size inner frame is corruption.
	if int(h.ShardLen) < 2 || int(h.ShardLen) > 2+maxFrameLen {
		return PathParityHeader{}, nil, fmt.Errorf("%w: shard len %d", ErrBadPathGroup, h.ShardLen)
	}
	shard := body[pathParityOver:]
	if len(shard) != int(h.ShardLen) {
		return PathParityHeader{}, nil, ErrPathTruncated
	}
	return h, shard, nil
}
