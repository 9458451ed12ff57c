// Cross-path FEC (Section VI-D: "a loss on one path repairs from the
// other"). A multipath conn groups the data frames it puts on one path into
// groups of K and sends M Reed–Solomon repair shards as TypeParity frames on
// another path, so a burst on one access link leaves the repair untouched
// and the receiver regenerates the lost frames without a retransmission.
//
// A member's image is the frame as a single-path conn encodes it unsealed —
// no path extension, no acknowledgement block, the plaintext payload — which
// both ends build from what they authenticated, so a regenerated frame is
// handled without a second open. Its shard is [imageLen uint16 | image |
// zero pad] at the group's shard length. A group flushed short, fecFlushAfter
// after it opened, declares its count in Actual; the missing tail shards are
// implicit zeros on both sides. A parity frame's payload:
//
//	off size field
//	0   4    group id (nonzero)
//	4   1    shard index, in [K, K+M)
//	5   1    K
//	6   1    M (K+M <= 16)
//	7   1    Actual: data shards sent; [Actual, K) are implicit zeros
//	8   2    shard length
//	10  ...  the shard
package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"marnet/internal/fec"
)

const (
	parityHeadLen = 10
	maxShards     = 16 // K+M bound: the receiver's per-group arrays
	// maxShardLen is the longest shard: the length prefix and a traced
	// image with a full payload.
	maxShardLen      = 2 + HeaderLenTraced + MaxPayload
	maxParityPayload = parityHeadLen + maxShardLen + sealedOver
	// fecFlushAfter bounds how long a partial group waits for members
	// before its parity leaves anyway.
	fecFlushAfter = 25 * time.Millisecond
	// rxGroups is how many groups the receiver holds: with K+M <= 16
	// shards of at most 1.3 kB each, about 2.6 MB at worst.
	rxGroups = 128
)

// parityHeader describes one repair shard of a cross-path FEC group.
type parityHeader struct {
	Group               uint32
	Index, K, M, Actual uint8
	ShardLen            uint16
}

// valid reports whether the geometry is one the reassembler can hold and a
// shard of n bytes matches it.
func (h parityHeader) valid(n int) bool {
	return h.Group != 0 && h.K != 0 && h.M != 0 && int(h.K)+int(h.M) <= maxShards &&
		h.Actual <= h.K && h.Index >= h.K && int(h.Index) < int(h.K)+int(h.M) &&
		h.ShardLen >= 2 && int(h.ShardLen) <= maxShardLen && n == int(h.ShardLen)
}

// appendParity encodes a parity payload.
func appendParity(dst []byte, h parityHeader, shard []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, h.Group)
	dst = append(dst, h.Index, h.K, h.M, h.Actual)
	dst = binary.LittleEndian.AppendUint16(dst, h.ShardLen)
	return append(dst, shard...)
}

// parseParity decodes a parity payload, validating the geometry so a
// corrupted header cannot drive the reconstructor out of bounds. The shard
// aliases p.
func parseParity(p []byte) (parityHeader, []byte, error) {
	if len(p) < parityHeadLen {
		return parityHeader{}, nil, ErrTruncated
	}
	h := parityHeader{
		Group: binary.LittleEndian.Uint32(p), Index: p[4], K: p[5], M: p[6], Actual: p[7],
		ShardLen: binary.LittleEndian.Uint16(p[8:]),
	}
	if shard := p[parityHeadLen:]; h.valid(len(shard)) {
		return h, shard, nil
	}
	return parityHeader{}, nil, fmt.Errorf("%w: parity group=%d k=%d m=%d actual=%d index=%d len=%d/%d",
		ErrBadPath, h.Group, h.K, h.M, h.Actual, h.Index, h.ShardLen, len(p)-parityHeadLen)
}

// groupImage encodes the group-member image of a data frame (see the file
// comment) into dst.
func groupImage(dst []byte, h Header, payload []byte) []byte {
	frame, _ := AppendFrame(dst, Header{Type: h.Type, Stream: h.Stream, Class: h.Class, Prio: h.Prio,
		Seq: h.Seq, SendMicro: h.SendMicro, TraceID: h.TraceID, SpanID: h.SpanID}, payload)
	return frame
}

// fecTx is the sending side: one open group per path.
type fecTx struct {
	rs   *fec.RS
	k, m int
	next uint32    // the next group id; 0 means ungrouped on the wire
	open []txGroup // by path
	data [maxShards][]byte
}

type txGroup struct {
	id     uint32
	n      int
	opened time.Time
	images [maxShards][]byte
}

func newFECTx(k, m, paths int) (*fecTx, error) {
	if k <= 0 || m <= 0 || k+m > maxShards {
		return nil, fmt.Errorf("wire: path FEC geometry k=%d m=%d out of range", k, m)
	}
	rs, err := fec.NewRS(k, m)
	if err != nil {
		return nil, err
	}
	return &fecTx{rs: rs, k: k, m: m, next: 1, open: make([]txGroup, paths)}, nil
}

// place files the data frame h leaving at now on path into the path's
// open group, opening one if needed, and returns its coordinates and
// whether the group is now full.
func (t *fecTx) place(path int, h Header, payload []byte, now time.Time) (group uint32, index uint8, full bool) {
	g := &t.open[path]
	if g.id == 0 {
		g.id, g.n, g.opened = t.next, 0, now
		if t.next++; t.next == 0 {
			t.next = 1
		}
	}
	g.images[g.n] = groupImage(g.images[g.n][:0], h, payload)
	index = uint8(g.n)
	g.n++
	return g.id, index, g.n == t.k
}

// seal closes path's open group and returns its repair shards, each with
// its parity header; the group's buffers are kept for the next one.
func (t *fecTx) seal(path int) (parityHeader, [][]byte) {
	g := &t.open[path]
	shardLen := 0
	for _, img := range g.images[:g.n] {
		shardLen = max(shardLen, len(img)+2)
	}
	for i := range t.data[:t.k] {
		t.data[i] = append(t.data[i][:0], make([]byte, shardLen)...)
		if i < g.n {
			binary.LittleEndian.PutUint16(t.data[i], uint16(len(g.images[i])))
			copy(t.data[i][2:], g.images[i])
		}
	}
	h := parityHeader{Group: g.id, K: uint8(t.k), M: uint8(t.m), Actual: uint8(g.n), ShardLen: uint16(shardLen)}
	g.id = 0
	repair, err := t.rs.Encode(t.data[:t.k])
	if err != nil {
		return h, nil // cannot happen for valid geometry: no parity
	}
	return h, repair
}

// fecRx is the receiving side: a ring of groups by id, which regenerates
// missing members once enough shards have arrived.
type fecRx struct {
	groups []rxGroup // allocated at the first grouped frame
	// repaired and unrepaired count the outcome of every hole observed: a
	// repaired hole was regenerated from parity, an unrepaired one was
	// still missing when its group left the ring.
	repaired   int64
	unrepaired int64
}

type rxGroup struct {
	id       uint32
	images   [maxShards][]byte // members by index (copies)
	parity   [maxShards][]byte // repair shards by index
	have     uint16            // members present
	shards   uint16            // repair shards present
	fixed    uint16            // members regenerated
	hdr      parityHeader
	hasHdr   bool
	maxIndex int
	done     bool // reconstructed or complete; later shards are redundant
}

// group returns the ring slot of group id, retiring the older group it
// held; nil for a group older than the slot's.
func (r *fecRx) group(id uint32) *rxGroup {
	if r.groups == nil {
		r.groups = make([]rxGroup, rxGroups)
	}
	g := &r.groups[id%rxGroups]
	switch {
	case g.id == id:
		return g
	case g.id > id:
		return nil
	}
	r.finish(g)
	g.id, g.have, g.shards, g.fixed, g.hasHdr, g.maxIndex, g.done = id, 0, 0, 0, false, -1, false
	return g
}

// onData files one delivered member and queues on out (popDatagram) any
// member a waiting parity shard can now regenerate.
func (r *fecRx) onData(group uint32, index uint8, img []byte, out []byte) []byte {
	if group == 0 || index >= maxShards {
		return out
	}
	g := r.group(group)
	if g == nil || g.done || g.have&(1<<index) != 0 {
		return out
	}
	g.images[index] = append(g.images[index][:0], img...)
	g.have |= 1 << index
	g.maxIndex = max(g.maxIndex, int(index))
	return r.reconstruct(g, out)
}

// onParity files one repair shard and appends any regenerated member to
// out.
func (r *fecRx) onParity(h parityHeader, shard []byte, out []byte) []byte {
	// Re-validate even though parseParity did: the reassembler must be safe
	// whatever handed it the header.
	if !h.valid(len(shard)) {
		return out
	}
	g := r.group(h.Group)
	if g == nil || g.done {
		return out
	}
	if !g.hasHdr {
		g.hdr, g.hasHdr = h, true
	} else if g.hdr.K != h.K || g.hdr.M != h.M || g.hdr.ShardLen != h.ShardLen || g.hdr.Actual != h.Actual {
		return out // inconsistent geometry: drop the shard, keep the group
	}
	if g.shards&(1<<h.Index) == 0 {
		g.parity[h.Index] = append(g.parity[h.Index][:0], shard...)
		g.shards |= 1 << h.Index
	}
	return r.reconstruct(g, out)
}

// reconstruct runs the erasure decode once the group's geometry is known
// and enough shards are on hand, queuing each regenerated member on out in
// index order.
func (r *fecRx) reconstruct(g *rxGroup, out []byte) []byte {
	if !g.hasHdr || g.done {
		return out
	}
	k, m, actual := int(g.hdr.K), int(g.hdr.M), int(g.hdr.Actual)
	wanted := uint16(1)<<actual - 1
	if g.have&wanted == wanted {
		g.done = true
		return out
	}
	shardLen := int(g.hdr.ShardLen)
	present := 0
	shards := make([][]byte, k+m)
	for i := 0; i < k; i++ {
		switch {
		case i >= actual: // implicit zero shard of a short-flushed group
			shards[i] = make([]byte, shardLen)
			present++
		case g.have&(1<<i) != 0:
			if len(g.images[i])+2 > shardLen {
				return out // geometry mismatch: wait for consistent shards
			}
			shards[i] = make([]byte, shardLen)
			binary.LittleEndian.PutUint16(shards[i], uint16(len(g.images[i])))
			copy(shards[i][2:], g.images[i])
			present++
		}
	}
	for i := k; i < k+m; i++ {
		if g.shards&(1<<i) != 0 {
			shards[i] = g.parity[i]
			present++
		}
	}
	if present < k {
		return out
	}
	rs, err := fec.NewRS(k, m)
	if err != nil {
		return out
	}
	recovered, err := rs.Reconstruct(shards)
	if err != nil {
		return out
	}
	for i := 0; i < actual; i++ {
		if g.have&(1<<i) != 0 {
			continue
		}
		n := int(binary.LittleEndian.Uint16(recovered[i]))
		if n > shardLen-2 {
			continue // corrupt length prefix; skip this member
		}
		g.fixed |= 1 << i
		r.repaired++
		out = binary.LittleEndian.AppendUint16(out, uint16(n))
		out = append(append(out, 0), recovered[i][2:2+n]...) // popDatagram's layout
	}
	g.done = true
	return out
}

// finish retires one group, counting the holes never repaired.
func (r *fecRx) finish(g *rxGroup) {
	if g.id == 0 || g.done {
		return
	}
	expected := g.maxIndex + 1
	if g.hasHdr {
		expected = int(g.hdr.Actual)
	}
	for i := 0; i < expected; i++ {
		if (g.have|g.fixed)&(1<<i) == 0 {
			r.unrepaired++
		}
	}
	g.done = true
}

// drain retires every group in the ring (teardown accounting).
func (r *fecRx) drain() {
	for i := range r.groups {
		r.finish(&r.groups[i])
	}
}
