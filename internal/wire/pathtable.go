package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/vclock"
)

// Multipath ARTP (Section VI-D, Fig. 5) is a property of the conn: the
// client's access links — WiFi, LTE, ... — are paths of one connCore, which
// chooses the path of every frame it sends (DESIGN.md §3i):
//
//   - interactive traffic (control frames, the highest priority band and
//     critical frames) rides the best live path, by state and then RTT;
//   - bulk bands stripe across the live paths by delivery-rate weight when
//     striping is on, and otherwise follow the interactive choice;
//   - cross-path FEC groups the data frames of each path and ships the
//     parity on another (pathfec.go);
//   - every path is probed every probeInterval and walks up → degraded →
//     down → probing → up; a path that dies has the reliable frames in
//     flight on it requeued onto the survivors at once.
//
// The server side learns a conn's paths from what arrives: each path's
// return address and the state and SRTT its probes advertise.

// PathState is one path's position in the probing state machine.
type PathState int

// Path states: Up carries everything; Degraded (probe-loss EWMA above
// degradeLoss) still carries traffic but loses interactive preference;
// Down was just declared dead (its in-flight frames evacuated); Probing is
// dead with recovery probes in flight.
const (
	PathUp PathState = iota
	PathDegraded
	PathDown
	PathProbing
)

// String renders the state for diagnostics and metrics labels.
func (s PathState) String() string {
	switch s {
	case PathUp:
		return "up"
	case PathDegraded:
		return "degraded"
	case PathDown:
		return "down"
	case PathProbing:
		return "probing"
	}
	return "?"
}

// rank orders states by scheduling preference.
func (s PathState) rank() int {
	switch s {
	case PathUp:
		return 0
	case PathDegraded:
		return 1
	case PathProbing:
		return 2
	}
	return 3
}

const (
	probeInterval = 50 * time.Millisecond // every path's probe period
	probeMiss     = 2                     // unanswered probes that declare a path down
	degradeLoss   = 0.4                   // probe-loss EWMA that degrades an up path; it recovers below half
	maxPaths      = 16                    // paths a conn keeps; a server ignores higher path ids
	advertLen     = 5                     // a probe's payload: SRTT (4) and state (1)
	// sentStamps is how many data frames the stamp ring remembers: a round
	// trip's worth of 1200 B frames at 100 Mb/s and 100 ms.
	sentStamps = 1024
)

// path is one access link's state. The client measures it; the server
// keeps what the client shows: the address its frames come from, when it
// was last heard from, and the SRTT and state its probes advertise.
type path struct {
	name         string
	state        PathState // on the server, as advertised
	rtt          core.RTT  // of probe answers: Min is the path's base RTT
	loss         float64
	lossKnown    bool
	pending      int // probes sent since the last answer
	probed       bool
	deliveryRate float64 // acknowledged bytes/s EWMA
	ackedBytes   int64   // since the last probe
	deficit      float64 // striping credit

	addr   *net.UDPAddr
	heard  time.Time
	adSRTT time.Duration

	sentFrames int64
	sentBytes  int64
}

// sentStamp remembers which path carried a data frame of any class, by the
// send stamp an acknowledgement echoes (rebase).
type sentStamp struct {
	micro uint64
	path  uint8
}

// pathNote is a path transition owed to the driver's OnPathState.
type pathNote struct {
	name  string
	state PathState
}

// pathTable is a multipath conn's path state, held by its connCore.
type pathTable struct {
	session uint64
	client  bool // the dialing end probes, stripes, evacuates and rebases
	stripe  bool
	paths   []path
	probeAt vclock.Deadline // the client's next probe round
	flushAt vclock.Deadline // the oldest open FEC group's flush
	tx      *fecTx          // nil without FEC
	rx      fecRx
	stamps  [sentStamps]sentStamp
	stampN  uint64
	notes   []pathNote
	scratch []byte // a probe's advertisement, a parity payload or a group image being encoded

	// Frames FEC regenerated, queued as ctl is, for the driver to handle as
	// arrivals.
	repaired     []byte
	repairedHead int

	failover   int64 // frames evacuated off dead paths
	paritySent int64
}

// newClientPaths is the path table of a conn dialled over paths.
func newClientPaths(paths []PathConf, opts PathOptions) (*pathTable, error) {
	switch {
	case len(paths) == 0 || len(paths) > maxPaths:
		return nil, fmt.Errorf("wire: a multipath conn needs 1 to %d paths, got %d", maxPaths, len(paths))
	case opts.Session == 0:
		return nil, errors.New("wire: a multipath conn needs a nonzero session id")
	}
	p := &pathTable{session: opts.Session, client: true, stripe: opts.Stripe, paths: make([]path, len(paths))}
	for i, pc := range paths {
		p.paths[i].name = pc.Name
	}
	var err error
	if opts.FEC.K > 0 {
		p.tx, err = newFECTx(opts.FEC.K, opts.FEC.M, len(paths))
	}
	return p, err
}

// heard files a frame from the client on path id at now, from addr (the
// server side), and reports the path; nil for an id beyond maxPaths.
func (p *pathTable) heard(id uint8, addr *net.UDPAddr, now time.Time) *path {
	if int(id) >= maxPaths {
		return nil
	}
	for len(p.paths) <= int(id) {
		p.paths = append(p.paths, path{})
	}
	pa := &p.paths[id]
	pa.addr, pa.heard = addr, now
	return pa
}

// score ranks path i at now: state first — on the server, as advertised
// and behind every path heard from within three probe intervals — then
// SRTT, zero for one not yet measured.
func (p *pathTable) score(i int, now time.Time) (int, time.Duration) {
	pa := &p.paths[i]
	if p.client {
		return pa.state.rank(), pa.rtt.Smoothed()
	}
	rank := pa.state.rank()
	if now.Sub(pa.heard) > 3*probeInterval {
		rank += 10
	}
	return rank, pa.adSRTT
}

// less orders path i before path j at now: by score, a measured SRTT
// before none, then by id.
func (p *pathTable) less(i, j int, now time.Time) bool {
	ri, si := p.score(i, now)
	rj, sj := p.score(j, now)
	switch {
	case ri != rj:
		return ri < rj
	case si == sj:
		return i < j
	case si == 0 || sj == 0:
		return sj == 0
	}
	return si < sj
}

// best is the most attractive path other than except (-1 for none). It
// never answers none while the table has another path — a fully dead set
// still sends, since the probe that revives a path has to travel somehow —
// and answers except when that is the only one.
func (p *pathTable) best(except int, now time.Time) int {
	best := -1
	for i := range p.paths {
		if i == except || !p.client && p.paths[i].addr == nil {
			continue
		}
		if best < 0 || p.less(i, best, now) {
			best = i
		}
	}
	if best < 0 {
		return max(except, 0)
	}
	return best
}

// live reports whether path i carries traffic in the striping rotation.
func (p *pathTable) live(i int) bool {
	return p.paths[i].state == PathUp || p.paths[i].state == PathDegraded
}

// pick is the latency-class-aware scheduler: the path of a frame with
// header h about to leave at now.
func (p *pathTable) pick(h *Header, now time.Time) int {
	interactive := h.Type != TypeData || core.Priority(h.Prio).Band() == 0 || core.Class(h.Class) == core.ClassCritical
	if interactive || !p.stripe {
		return p.best(-1, now)
	}
	// Bulk striping: deficit-weighted round robin over the live paths,
	// weighted by measured delivery rate.
	total, n, best := 0.0, 0, -1
	for i := range p.paths {
		if !p.live(i) {
			continue
		}
		total += p.weight(i)
		n++
		if best < 0 || p.paths[i].deficit > p.paths[best].deficit {
			best = i
		}
	}
	if n < 2 {
		return p.best(-1, now)
	}
	for i := range p.paths {
		if p.live(i) {
			p.paths[i].deficit += p.weight(i) / total
		}
	}
	p.paths[best].deficit--
	return best
}

// weight is path i's striping weight: its delivery rate, 1 before any.
func (p *pathTable) weight(i int) float64 {
	if w := p.paths[i].deliveryRate; w > 0 {
		return w
	}
	return 1
}

// charge accounts one datagram of n bytes sent on path i.
func (p *pathTable) charge(i, n int) {
	if i < len(p.paths) {
		p.paths[i].sentFrames++
		p.paths[i].sentBytes += int64(n)
	}
}

// credit accounts n acknowledged bytes to the path that carried them.
func (p *pathTable) credit(i uint8, n int) {
	if int(i) < len(p.paths) {
		p.paths[i].ackedBytes += int64(n)
	}
}

// stamp remembers that the data frame stamped micro left on path i.
func (p *pathTable) stamp(micro uint64, i int) {
	p.stamps[p.stampN%sentStamps] = sentStamp{micro: micro, path: uint8(i)}
	p.stampN++
}

// rebase is the delay the controller reacts to (Section VI-D
// heterogeneity): core.BaseRTTFloor plus how far rtt exceeds the base RTT
// of the path that carried the frame whose send stamp the sample echoes,
// whatever its class. Fed the raw sample, the controller would read the
// mere existence of a slower path — LTE beside WiFi — as congestion at
// every cutover and cut the budget to its floor.
//
// A burst striped over several paths shares one stamp, and a frame the
// ring has forgotten could have taken any path: of the candidates, the
// sample is rebased onto the slowest base it is not below, since no frame
// arrives faster than its path's base, and onto the floor if it is below
// them all. A sample no candidate's probes have timed yet passes through.
func (p *pathTable) rebase(rtt time.Duration, echo uint64) time.Duration {
	var below, above time.Duration // slowest base <= rtt, fastest base > rtt
	found := false
	// Stamps only grow in send order: walk back to the first older one.
	for n := p.stampN; n > 0 && p.stampN-n < sentStamps; n-- {
		s := p.stamps[(n-1)%sentStamps]
		if s.micro < echo {
			break
		}
		if s.micro == echo {
			found = true
			below, above = p.paths[s.path].bound(rtt, below, above)
		}
	}
	if !found {
		for i := range p.paths {
			below, above = p.paths[i].bound(rtt, below, above)
		}
	}
	switch {
	case below > 0:
		return core.BaseRTTFloor + rtt - below
	case above > 0:
		return core.BaseRTTFloor
	}
	return rtt
}

// bound folds the path's base RTT into the slowest base at or below rtt
// and the fastest above it.
func (pa *path) bound(rtt, below, above time.Duration) (time.Duration, time.Duration) {
	switch base := pa.rtt.Min(); {
	case base == 0:
	case base <= rtt:
		below = max(below, base)
	case above == 0 || base < above:
		above = base
	}
	return below, above
}

// takeNotes hands the driver the path transitions owed to OnPathState
// (none on a single-path conn, whose table is nil).
func (p *pathTable) takeNotes() []pathNote {
	if p == nil || len(p.notes) == 0 {
		return nil
	}
	notes := append([]pathNote(nil), p.notes...)
	p.notes = p.notes[:0]
	return notes
}

// enterPath moves path i into state st at now and files the transition.
func (c *connCore) enterPath(i int, st PathState, now time.Time) {
	pa := &c.paths.paths[i]
	pa.state = st
	c.rec.RecordAt(now, obs.EvPathState, uint8(st), uint16(i), 0, uint64(pa.rtt.Smoothed().Microseconds()))
	c.paths.notes = append(c.paths.notes, pathNote{pa.name, st})
}

// probePaths is the alarm's path step: a probe round that is due scores
// the interval past on every path (answered or not), walks the state
// machine, evacuates a path that died and owes each path its next probe;
// and every FEC group open fecFlushAfter owes its parity.
func (c *connCore) probePaths(now time.Time, due vclock.Deadline) {
	p := c.paths
	if p == nil {
		return
	}
	if !due.Before(p.flushAt) {
		c.flushGroups(now, due.At)
	}
	if due.Before(p.probeAt) {
		return
	}
	c.set(&p.probeAt, now.Add(probeInterval))
	for i := range p.paths {
		pa := &p.paths[i]
		if pa.probed {
			miss := 0.0
			if pa.pending > 0 {
				miss = 1
			}
			if !pa.lossKnown {
				pa.loss, pa.lossKnown = miss, true
			} else {
				pa.loss += 0.25 * (miss - pa.loss)
			}
			rate := float64(pa.ackedBytes) / probeInterval.Seconds()
			pa.ackedBytes = 0
			pa.deliveryRate += 0.25 * (rate - pa.deliveryRate)
		}
		switch {
		case pa.pending >= probeMiss && p.live(i):
			c.enterPath(i, PathDown, now)
			c.evacuate(i)
		case pa.state == PathDown:
			c.enterPath(i, PathProbing, now)
		case pa.state == PathUp && pa.loss >= degradeLoss:
			c.enterPath(i, PathDegraded, now)
		case pa.state == PathDegraded && pa.loss < degradeLoss/2:
			c.enterPath(i, PathUp, now)
		}
		p.scratch = binary.LittleEndian.AppendUint32(p.scratch[:0], uint32(pa.rtt.Smoothed().Microseconds()))
		p.scratch = append(p.scratch, uint8(pa.state))
		pa.pending++
		pa.probed = true
		c.oweControl(now, Header{Type: TypePing, SendMicro: uint64(now.Sub(c.epoch).Microseconds()), Session: p.session, Path: uint8(i)}, p.scratch)
	}
}

// evacuate requeues every reliable frame in flight on a dead path, in
// stream order, then sequence, for the survivors: no retransmit charge and
// no loss sample, since its carrier died, not the network's capacity.
func (c *connCore) evacuate(dead int) {
	for _, st := range c.streams {
		for seq, ok := st.window.first(); ok; seq, ok = st.window.after(seq) {
			if pp := st.window.get(seq); int(pp.path) == dead && !pp.queued && !pp.lastSent.IsZero() {
				pp.queued = true
				c.paths.failover++
				c.enqueue(st, seq, pp.pbuf, pp.traceID, pp.spanID)
			}
		}
	}
}

// group places a data frame leaving at now on path i in its FEC group,
// owing the group's parity once it is full.
func (c *connCore) group(h *Header, payload []byte, i int, now time.Time) {
	tx := c.paths.tx
	if tx == nil || i >= len(tx.open) {
		return
	}
	var full bool
	h.Group, h.Index, full = tx.place(i, *h, payload, now)
	switch {
	case full:
		c.owe(i, now)
	case h.Index == 0:
		c.armFlush()
	}
}

// flushGroups owes the parity of every group open since at − fecFlushAfter
// or earlier.
func (c *connCore) flushGroups(now, at time.Time) {
	c.paths.flushAt = vclock.Deadline{}
	for i := range c.paths.tx.open {
		if g := &c.paths.tx.open[i]; g.id != 0 && !at.Before(g.opened.Add(fecFlushAfter)) {
			c.owe(i, now)
		}
	}
	c.armFlush()
}

// armFlush sets the flush deadline for the oldest open group.
func (c *connCore) armFlush() {
	var oldest time.Time
	for i := range c.paths.tx.open {
		if g := &c.paths.tx.open[i]; g.id != 0 && (oldest.IsZero() || g.opened.Before(oldest)) {
			oldest = g.opened
		}
	}
	if at := oldest.Add(fecFlushAfter); !oldest.IsZero() && (c.paths.flushAt.At.IsZero() || at.Before(c.paths.flushAt.At)) {
		c.set(&c.paths.flushAt, at)
	}
}

// owe closes path i's open group and owes its repair shards on the best
// other path (the same one when it is the only one).
func (c *connCore) owe(i int, now time.Time) {
	p := c.paths
	h, repair := p.tx.seal(i)
	alt := p.best(i, now)
	for n, shard := range repair {
		h.Index = h.K + uint8(n)
		p.scratch = appendParity(p.scratch[:0], h, shard)
		c.oweControl(now, Header{Type: TypeParity, Session: p.session, Path: uint8(alt)}, p.scratch)
		p.paritySent++
	}
}

// onPath files what a frame with the path bit says about its path, arriving
// at now from addr, before onDatagram takes it: on the server the return
// address, the freshness and a probe's advertisement; on the client a
// probe's answer; on both the FEC group member or repair shard, whose
// regenerated frames wait in repaired. It reports whether the frame goes
// on to onDatagram — not a parity frame, nor one of another session.
func (c *connCore) onPath(now time.Time, hdr *Header, payload []byte, addr *net.UDPAddr) bool {
	if c.paths == nil { // the first path frame makes a listening conn multipath
		c.paths = &pathTable{session: hdr.Session}
	}
	p := c.paths
	if hdr.Session != p.session {
		return false
	}
	if !p.client {
		pa := p.heard(hdr.Path, addr, now)
		if pa != nil && hdr.Type == TypePing && len(payload) >= advertLen {
			pa.adSRTT = time.Duration(binary.LittleEndian.Uint32(payload)) * time.Microsecond
			pa.state = PathState(payload[4] & 3)
		}
	} else if int(hdr.Path) < len(p.paths) && hdr.Type == TypePong {
		pa := &p.paths[hdr.Path]
		pa.pending = 0
		pa.rtt.Update(now.Sub(c.epoch) - time.Duration(hdr.SendMicro)*time.Microsecond)
		if pa.state == PathDown || pa.state == PathProbing {
			pa.loss, pa.lossKnown = 0, true
			c.enterPath(int(hdr.Path), PathUp, now)
		}
	}
	switch hdr.Type {
	case TypeData:
		if hdr.Group != 0 {
			p.scratch = groupImage(p.scratch[:0], *hdr, payload)
			p.repaired = p.rx.onData(hdr.Group, hdr.Index, p.scratch, p.repaired)
		}
	case TypeParity:
		h, shard, err := parseParity(payload)
		if err != nil {
			return false
		}
		if p.tx == nil && !p.client { // the downlink takes the client's geometry
			p.tx, _ = newFECTx(int(h.K), int(h.M), maxPaths)
		}
		p.repaired = p.rx.onParity(h, shard, p.repaired)
		return false
	}
	return true
}
