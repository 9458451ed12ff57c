// Cross-path FEC for the path layer (Section VI-D: "a loss on one path
// repairs from the other"). The sender groups the data frames it puts on
// one subflow into parity groups of K and ships M Reed–Solomon repair
// shards over a *different* subflow, so a burst that kills consecutive
// datagrams on one access link leaves the repair information untouched.
// The receiver reassembles groups and regenerates missing inner frames
// without any end-to-end retransmission; the Conn's duplicate filter
// absorbs the case where a presumed-lost original limps in later.
//
// Shard geometry: every data frame becomes the shard [innerLen uint16 |
// inner | zero pad] at the group's shard length (longest member + 2), so
// reconstruction recovers exact frame boundaries. Groups flushed short
// (fewer than K members when the flush timer fires) declare the count in
// the parity header's Actual field; the missing tail shards are implicit
// zeros on both sides.
package wire

import (
	"encoding/binary"
	"sort"

	"marnet/internal/fec"
)

// parityOut is one repair shard ready for encapsulation.
type parityOut struct {
	hdr   PathParityHeader
	shard []byte
}

// fecGroups is the sender side: per-path accumulation of open groups.
type fecGroups struct {
	rs        *fec.RS
	k, m      int
	nextGroup uint32
	open      map[int]*openGroup
}

type openGroup struct {
	id     uint32
	inners [][]byte
	maxLen int
}

func newFECGroups(k, m int) (*fecGroups, error) {
	rs, err := fec.NewRS(k, m)
	if err != nil {
		return nil, err
	}
	return &fecGroups{rs: rs, k: k, m: m, nextGroup: 1, open: make(map[int]*openGroup)}, nil
}

// place assigns the group coordinates for one data frame about to leave
// on path and, when the group fills, returns its repair shards.
func (f *fecGroups) place(path int, inner []byte) (group uint32, index uint8, parity []parityOut) {
	og := f.open[path]
	if og == nil {
		og = &openGroup{id: f.nextGroup}
		f.nextGroup++
		if f.nextGroup == 0 { // group 0 means "ungrouped"
			f.nextGroup = 1
		}
		f.open[path] = og
	}
	index = uint8(len(og.inners))
	og.inners = append(og.inners, append([]byte(nil), inner...))
	if len(inner) > og.maxLen {
		og.maxLen = len(inner)
	}
	group = og.id
	if len(og.inners) == f.k {
		parity = f.encode(og)
		delete(f.open, path)
	}
	return group, index, parity
}

// flush closes every open group that has at least one member — the
// fecFlushAfter timer's way of protecting a short tail when the data rate
// drops. It returns the repair shards for each closed group.
func (f *fecGroups) flush() []parityOut {
	if len(f.open) == 0 {
		return nil
	}
	paths := make([]int, 0, len(f.open))
	for p := range f.open {
		paths = append(paths, p)
	}
	sort.Ints(paths)
	var out []parityOut
	for _, p := range paths {
		out = append(out, f.encode(f.open[p])...)
		delete(f.open, p)
	}
	return out
}

// encode builds the group's repair shards. Members past Actual are
// implicit zero shards, present on both sides by convention.
func (f *fecGroups) encode(og *openGroup) []parityOut {
	shardLen := og.maxLen + 2
	data := make([][]byte, f.k)
	for i := range data {
		data[i] = make([]byte, shardLen)
		if i < len(og.inners) {
			binary.LittleEndian.PutUint16(data[i], uint16(len(og.inners[i])))
			copy(data[i][2:], og.inners[i])
		}
	}
	repair, err := f.rs.Encode(data)
	if err != nil {
		return nil // cannot happen for valid geometry; fail safe to "no parity"
	}
	out := make([]parityOut, f.m)
	for i := range repair {
		out[i] = parityOut{
			hdr: PathParityHeader{
				Group: og.id, Index: uint8(f.k + i),
				K: uint8(f.k), M: uint8(f.m), Actual: uint8(len(og.inners)),
				ShardLen: uint16(shardLen),
			},
			shard: repair[i],
		}
	}
	return out
}

// fecReassembler is the receiver side: it tracks group membership and
// regenerates missing inner frames when enough shards have arrived.
type fecReassembler struct {
	groups map[uint32]*rxGroup
	// Repaired/Unrepaired count the per-frame outcome of every hole the
	// receiver observed: a repaired hole produced the missing inner frame
	// from parity; an unrepaired one was still missing when its group was
	// evicted.
	Repaired   int64
	Unrepaired int64
}

type rxGroup struct {
	data     map[int][]byte // inner frames by index (originals, copies)
	parity   map[int][]byte
	repaired map[int]bool
	hdr      PathParityHeader
	hasHdr   bool
	maxIndex int
	done     bool // reconstructed; later shards are redundant
}

// maxRxGroups bounds reassembly memory: with K+M <= 16 shards of <= 1.3 kB
// each, 128 live groups is ~2.6 MB worst case.
const maxRxGroups = 128

func newFECReassembler() *fecReassembler {
	return &fecReassembler{groups: make(map[uint32]*rxGroup)}
}

func (r *fecReassembler) group(id uint32) *rxGroup {
	g := r.groups[id]
	if g == nil {
		g = &rxGroup{data: make(map[int][]byte), parity: make(map[int][]byte), repaired: make(map[int]bool), maxIndex: -1}
		r.groups[id] = g
		r.evict()
	}
	return g
}

// onData records one delivered group member and returns any inner frames
// a waiting parity shard can now regenerate.
func (r *fecReassembler) onData(group uint32, index uint8, inner []byte) [][]byte {
	if group == 0 {
		return nil
	}
	g := r.group(group)
	if g.done || g.data[int(index)] != nil {
		return nil
	}
	g.data[int(index)] = append([]byte(nil), inner...)
	if int(index) > g.maxIndex {
		g.maxIndex = int(index)
	}
	return r.tryReconstruct(group, g)
}

// onParity records one repair shard and returns any regenerated inner
// frames.
func (r *fecReassembler) onParity(hdr PathParityHeader, shard []byte) [][]byte {
	// Re-validate geometry even though DecodePathParity already did: the
	// reassembler must be safe standalone, whatever handed it the header.
	if hdr.Group == 0 || hdr.K == 0 || hdr.M == 0 || int(hdr.K)+int(hdr.M) > 255 ||
		hdr.Actual > hdr.K || hdr.Index < hdr.K || int(hdr.Index) >= int(hdr.K)+int(hdr.M) ||
		hdr.ShardLen < 2 || len(shard) != int(hdr.ShardLen) {
		return nil
	}
	g := r.group(hdr.Group)
	if g.done {
		return nil
	}
	if !g.hasHdr {
		g.hdr, g.hasHdr = hdr, true
	} else if g.hdr.K != hdr.K || g.hdr.M != hdr.M || g.hdr.ShardLen != hdr.ShardLen {
		return nil // inconsistent geometry: drop the shard, keep the group
	}
	if g.parity[int(hdr.Index)] == nil {
		g.parity[int(hdr.Index)] = append([]byte(nil), shard...)
	}
	return r.tryReconstruct(hdr.Group, g)
}

// tryReconstruct runs the erasure decode once the group's geometry is
// known and enough shards are on hand, returning the regenerated missing
// inner frames in index order.
func (r *fecReassembler) tryReconstruct(id uint32, g *rxGroup) [][]byte {
	if !g.hasHdr || g.done {
		return nil
	}
	k, m, actual := int(g.hdr.K), int(g.hdr.M), int(g.hdr.Actual)
	missing := 0
	for i := 0; i < actual; i++ {
		if g.data[i] == nil {
			missing++
		}
	}
	if missing == 0 {
		g.done = true
		return nil
	}
	shardLen := int(g.hdr.ShardLen)
	present := 0
	shards := make([][]byte, k+m)
	for i := 0; i < k; i++ {
		switch {
		case i >= actual: // implicit zero shard of a short-flushed group
			shards[i] = make([]byte, shardLen)
			present++
		case g.data[i] != nil:
			if len(g.data[i])+2 > shardLen {
				return nil // geometry mismatch: wait for consistent shards
			}
			img := make([]byte, shardLen)
			binary.LittleEndian.PutUint16(img, uint16(len(g.data[i])))
			copy(img[2:], g.data[i])
			shards[i] = img
			present++
		}
	}
	for i, p := range g.parity {
		if i < k+m && len(p) == shardLen {
			shards[i] = p
			present++
		}
	}
	if present < k {
		return nil
	}
	rs, err := fec.NewRS(k, m)
	if err != nil {
		return nil
	}
	recovered, err := rs.Reconstruct(shards)
	if err != nil {
		return nil
	}
	var out [][]byte
	for i := 0; i < actual; i++ {
		if g.data[i] != nil || g.repaired[i] {
			continue
		}
		n := int(binary.LittleEndian.Uint16(recovered[i]))
		if n > shardLen-2 {
			continue // corrupt length prefix; skip this frame
		}
		g.repaired[i] = true
		r.Repaired++
		out = append(out, append([]byte(nil), recovered[i][2:2+n]...))
	}
	g.done = true
	return out
}

// evict drops the oldest groups past the retention bound, charging every
// still-missing member to the Unrepaired counter. Group ids are
// monotonically increasing at the sender, so "oldest" is "smallest id".
func (r *fecReassembler) evict() {
	if len(r.groups) <= maxRxGroups {
		return
	}
	ids := make([]int, 0, len(r.groups))
	for id := range r.groups {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids[:len(r.groups)-maxRxGroups] {
		r.finish(uint32(id))
	}
}

// finish closes one group, accounting holes that were never repaired.
func (r *fecReassembler) finish(id uint32) {
	g := r.groups[id]
	if g == nil {
		return
	}
	if !g.done {
		expected := g.maxIndex + 1
		if g.hasHdr {
			expected = int(g.hdr.Actual)
		}
		for i := 0; i < expected; i++ {
			if g.data[i] == nil && !g.repaired[i] {
				r.Unrepaired++
			}
		}
	}
	delete(r.groups, id)
}

// drain finalizes every live group (teardown accounting).
func (r *fecReassembler) drain() {
	ids := make([]int, 0, len(r.groups))
	for id := range r.groups {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		r.finish(uint32(id))
	}
}
