package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"marnet/internal/core"
)

// --- codec -----------------------------------------------------------------

func TestPathCodecDataRoundTrip(t *testing.T) {
	h := Header{Type: TypeData, Stream: 3, Class: uint8(core.ClassLossRecovery), Prio: uint8(core.PrioHighest),
		Seq: 42, SendMicro: 7, Session: 0xDEADBEEF, Path: 1, Group: 77, Index: 3, TraceID: 5, SpanID: 6}
	frame, err := AppendFrame(nil, h, []byte("pose-update"))
	if err != nil {
		t.Fatal(err)
	}
	if frame[2] != flagBase|flagTraced|flagPath || len(frame) != HeaderLenTraced+pathExtLen+groupExtLen+len("pose-update") {
		t.Fatalf("flags %#x, %d bytes", frame[2], len(frame))
	}
	if got := keyOf(frame, pathAddr(1)); got != (muxKey{session: 0xDEADBEEF}) {
		t.Fatalf("a Mux keys the frame as %+v, want its session", got)
	}
	got, payload, err := DecodeFrame(frame)
	if err != nil || !sameHeader(got, Header{PayloadLen: 11, Type: h.Type, Stream: h.Stream, Class: h.Class, Prio: h.Prio,
		Seq: h.Seq, SendMicro: h.SendMicro, Session: h.Session, Path: h.Path, Group: h.Group, Index: h.Index,
		TraceID: h.TraceID, SpanID: h.SpanID}) || string(payload) != "pose-update" {
		t.Fatalf("round trip: %v %+v %q", err, got, payload)
	}
	// Ungrouped: the path extension alone.
	h.Group, h.Index, h.TraceID, h.SpanID = 0, 0, 0, 0
	frame, _ = AppendFrame(nil, h, nil)
	if got, _, err := DecodeFrame(frame); err != nil || got.Group != 0 || got.Path != 1 || len(frame) != HeaderLen+pathExtLen {
		t.Fatalf("ungrouped: %v %+v, %d bytes", err, got, len(frame))
	}
}

func TestPathCodecProbeRoundTrip(t *testing.T) {
	ad := []byte{0x68, 0x10, 0, 0, uint8(PathDegraded)}
	for _, typ := range []uint8{TypePing, TypePong} {
		frame, err := AppendFrame(nil, Header{Type: typ, SendMicro: 123456, Session: 7, Path: 2}, ad)
		if err != nil {
			t.Fatal(err)
		}
		got, payload, err := DecodeFrame(frame)
		if err != nil || got.Type != typ || got.Session != 7 || got.Path != 2 || got.SendMicro != 123456 || !bytes.Equal(payload, ad) {
			t.Fatalf("type %d: %v %+v %x", typ, err, got, payload)
		}
	}
}

func TestPathCodecParityRoundTrip(t *testing.T) {
	shard := bytes.Repeat([]byte{0xAB}, 64)
	h := parityHeader{Group: 5, Index: 4, K: 4, M: 2, Actual: 3, ShardLen: 64}
	frame, err := AppendFrame(nil, Header{Type: TypeParity, Session: 99, Path: 1}, appendParity(nil, h, shard))
	if err != nil {
		t.Fatal(err)
	}
	hdr, payload, err := DecodeFrame(frame)
	if err != nil || hdr.Type != TypeParity {
		t.Fatal(err)
	}
	got, gotShard, err := parseParity(payload)
	if err != nil || got != h || !bytes.Equal(gotShard, shard) {
		t.Fatalf("parity mismatch: %v %+v", err, got)
	}
	// A parity frame spans a whole data frame, so it may exceed MaxPayload.
	big := make([]byte, maxShardLen)
	if _, err := AppendFrame(nil, Header{Type: TypeParity, Session: 1}, appendParity(nil, parityHeader{Group: 1, Index: 1, K: 1, M: 1, ShardLen: maxShardLen}, big)); err != nil {
		t.Fatalf("a full-size parity frame: %v", err)
	}
}

func TestPathCodecRejectsGarbage(t *testing.T) {
	plain, _ := AppendFrame(nil, Header{Type: TypeData, Stream: 1, Seq: 1}, []byte("x"))
	if got := keyOf(plain, pathAddr(0)); got.session != 0 {
		t.Fatal("a plain frame keyed by session")
	}
	for _, h := range []Header{
		{Type: TypeData, Path: 1},                          // a path without a session
		{Type: TypeData, Session: 1, Path: pathGrouped},    // path id past 127
		{Type: TypeData, Session: 1, Index: 2},             // an index without a group
		{Type: TypeData, Group: 3},                         // a group without a session
		{Type: TypeData, Session: 1, Path: 1, Group: 0xff}, // fine
	} {
		_, err := AppendFrame(nil, h, nil)
		if (err == nil) != (h.Group == 0xff) {
			t.Errorf("%+v: %v", h, err)
		}
	}
	grouped, _ := AppendFrame(nil, Header{Type: TypeData, Session: 1, Group: 9}, nil)
	zero := bytes.Clone(grouped)
	zero[HeaderLen-2+pathExtLen] = 0 // group 0 behind the grouped bit
	zero[HeaderLen-2+pathExtLen+1], zero[HeaderLen-2+pathExtLen+2], zero[HeaderLen-2+pathExtLen+3] = 0, 0, 0
	noSession := bytes.Clone(grouped)
	clear(noSession[HeaderLen-2 : HeaderLen-2+8])
	for name, b := range map[string][]byte{"group 0": zero, "session 0": noSession} {
		if _, _, err := DecodeFrame(b); !errors.Is(err, ErrBadPath) {
			t.Errorf("%s: want ErrBadPath, got %v", name, err)
		}
	}
	if _, _, err := DecodeFrame(grouped[:HeaderLen+pathExtLen]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("truncated group: want ErrShortFrame, got %v", err)
	}
	// Parity geometry violations must all be rejected.
	shard := make([]byte, 8)
	for _, h := range []parityHeader{
		{Group: 0, Index: 4, K: 4, M: 2, ShardLen: 8},            // group 0 reserved
		{Group: 1, Index: 2, K: 4, M: 2, ShardLen: 8},            // index below K
		{Group: 1, Index: 6, K: 4, M: 2, ShardLen: 8},            // index past K+M
		{Group: 1, Index: 4, K: 4, M: 2, Actual: 5, ShardLen: 8}, // actual > K
		{Group: 1, Index: 4, K: 0, M: 2, ShardLen: 8},            // zero K
		{Group: 1, Index: 4, K: 4, M: 0, ShardLen: 8},            // zero M
		{Group: 1, Index: 16, K: 15, M: 2, ShardLen: 8},          // K+M past 16
		{Group: 1, Index: 4, K: 4, M: 2, ShardLen: 9},            // shard length lying
	} {
		if _, _, err := parseParity(appendParity(nil, h, shard)); !errors.Is(err, ErrBadPath) {
			t.Errorf("geometry %+v: %v", h, err)
		}
	}
	if _, _, err := parseParity(make([]byte, parityHeadLen-1)); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated parity header: %v", err)
	}
}

// --- cross-path FEC --------------------------------------------------------

// innerFrame is a distinguishable reliable data frame's header and payload.
func innerFrame(seq int64, size int) (Header, []byte) {
	return Header{Type: TypeData, Stream: 2, Class: uint8(core.ClassLossRecovery), Prio: uint8(core.PrioHighest), Seq: seq},
		bytes.Repeat([]byte{byte(seq)}, size)
}

// parityOf seals path's open group and returns its repair shards.
func parityOf(t *testing.T, tx *fecTx, path int) (hdrs []parityHeader, shards [][]byte) {
	t.Helper()
	h, repair := tx.seal(path)
	for i, shard := range repair {
		h.Index = h.K + uint8(i)
		hdrs = append(hdrs, h)
		shards = append(shards, shard)
	}
	return hdrs, shards
}

// frames splits repaired, the receiver's queue, into frames.
func frames(p *pathTable) [][]byte {
	var out [][]byte
	for f, _, ok := popDatagram(&p.repaired, &p.repairedHead, nil); ok; f, _, ok = popDatagram(&p.repaired, &p.repairedHead, nil) {
		out = append(out, f)
	}
	return out
}

func TestPathFECRepairsDrops(t *testing.T) {
	tx, err := newFECTx(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rx pathTable
	type sent struct {
		group uint32
		index uint8
		image []byte
	}
	var sents []sent
	for seq := int64(0); seq < 4; seq++ {
		h, p := innerFrame(seq, 40+10*int(seq)) // unequal sizes exercise padding
		g, i, full := tx.place(0, h, p, time.Time{})
		sents = append(sents, sent{g, i, groupImage(nil, h, p)})
		if full != (seq == 3) {
			t.Fatalf("frame %d: full=%v", seq, full)
		}
	}
	hdrs, shards := parityOf(t, tx, 0)
	// Deliver frames 0 and 3; drop 1 and 2 (a 2-burst); then the parity.
	for _, s := range []sent{sents[0], sents[3]} {
		rx.repaired = rx.rx.onData(s.group, s.index, s.image, rx.repaired)
	}
	for i := range hdrs {
		rx.repaired = rx.rx.onParity(hdrs[i], shards[i], rx.repaired)
	}
	got := frames(&rx)
	if len(got) != 2 || !bytes.Equal(got[0], sents[1].image) || !bytes.Equal(got[1], sents[2].image) {
		t.Fatalf("recovered %d frames, want the dropped originals", len(got))
	}
	if rx.rx.repaired != 2 || rx.rx.unrepaired != 0 {
		t.Fatalf("accounting: repaired=%d unrepaired=%d", rx.rx.repaired, rx.rx.unrepaired)
	}
}

func TestPathFECShortFlush(t *testing.T) {
	tx, _ := newFECTx(4, 2, 1)
	var rx pathTable
	ha, pa := innerFrame(1, 30)
	hb, pb := innerFrame(2, 50)
	g, _, _ := tx.place(0, ha, pa, time.Time{})
	tx.place(0, hb, pb, time.Time{})
	hdrs, shards := parityOf(t, tx, 0)
	if len(hdrs) != 2 || hdrs[0].Actual != 2 || hdrs[0].K != 4 {
		t.Fatalf("short-flush headers: %+v", hdrs)
	}
	// Drop frame a entirely; parity + frame b must still regenerate it,
	// because indexes 2..3 are implicit zero shards.
	rx.repaired = rx.rx.onData(g, 1, groupImage(nil, hb, pb), rx.repaired)
	for i := range hdrs {
		rx.repaired = rx.rx.onParity(hdrs[i], shards[i], rx.repaired)
	}
	if got := frames(&rx); len(got) != 1 || !bytes.Equal(got[0], groupImage(nil, ha, pa)) {
		t.Fatalf("short-flush repair failed: %d frames", len(got))
	}
}

func TestPathFECUnrepairedAccounting(t *testing.T) {
	tx, _ := newFECTx(2, 1, 1)
	var rx fecRx
	for seq := int64(1); seq <= 2; seq++ {
		h, p := innerFrame(seq, 20)
		tx.place(0, h, p, time.Time{})
	}
	// Both data frames lost, only parity arrives: 1 shard of 2 needed.
	hdrs, shards := parityOf(t, tx, 0)
	if out := rx.onParity(hdrs[0], shards[0], nil); out != nil {
		t.Fatal("impossible reconstruction")
	}
	rx.drain()
	rx.drain() // a second drain counts nothing twice
	if rx.unrepaired != 2 {
		t.Fatalf("unrepaired=%d want 2", rx.unrepaired)
	}
}

// --- the client's paths, on a coreNet ------------------------------------

// blackhole drops every frame either way on path while *on holds.
func blackhole(n *coreNet, path uint8, on *bool) {
	n.fate = func(_ *coreEnd, frame []byte) (int, time.Duration) {
		if h, _, err := DecodeFrame(frame); err == nil && *on && h.Session != 0 && h.Path == path {
			return 0, 0
		}
		return 1, 0
	}
}

// dataOn lists, per written data frame of e at or after from, its path and
// sequence.
func dataOn(e *coreEnd, from time.Time) (paths []uint8, seqs []int64) {
	for i, f := range e.written {
		if h, _, err := DecodeFrame(f); err == nil && h.Type == TypeData && !e.writtenAt[i].Before(from) {
			paths, seqs = append(paths, h.Path), append(seqs, h.Seq)
		}
	}
	return paths, seqs
}

func TestPathSetProbeStateMachine(t *testing.T) {
	n := newCoreNet(5 * time.Millisecond)
	cli, srv := n.pair(Config{StartBudget: 1e7}, Config{StartBudget: 1e7})
	cli.dialPaths(2, PathOptions{Session: 11})
	dark := false
	blackhole(n, 0, &dark)
	n.run(220 * time.Millisecond)
	for i := range cli.core.paths.paths {
		if pa := cli.core.paths.paths[i]; pa.state != PathUp || pa.pending != 0 || pa.rtt.Smoothed() != 10*time.Millisecond {
			t.Fatalf("path %d not healthy: %s with %d probes unanswered, SRTT %v", i, pa.state, pa.pending, pa.rtt.Smoothed())
		}
	}
	if len(srv.core.paths.paths) != 2 {
		t.Fatalf("the server learned %d paths, want 2", len(srv.core.paths.paths))
	}

	// Two unanswered probes declare the path down.
	dark = true
	n.run(150 * time.Millisecond)
	if st := cli.core.paths.paths[0].state; st != PathDown {
		t.Fatalf("path0 should be down, is %s", st)
	}
	if st := cli.core.paths.paths[1].state; st != PathUp {
		t.Fatalf("path1 should be up, is %s", st)
	}
	// Heal: the next round probes, and its answer revives the path.
	dark = false
	n.run(50 * time.Millisecond)
	if st := cli.core.paths.paths[0].state; st != PathUp {
		t.Fatalf("path0 should recover to up, is %s", st)
	}
	want := []pathNote{{"path0", PathDown}, {"path0", PathProbing}, {"path0", PathUp}}
	if !slices.Equal(cli.notes, want) {
		t.Fatalf("transitions %v, want %v", cli.notes, want)
	}
}

func TestPathSetFailoverEvacuatesInflight(t *testing.T) {
	n := newCoreNet(5 * time.Millisecond)
	streams := []StreamSpec{{ID: 2, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 1e6}}
	cli, srv := n.pair(Config{Streams: streams, StartBudget: 1e7}, Config{StartBudget: 1e7})
	cli.dialPaths(2, PathOptions{Session: 12})
	dark := false
	blackhole(n, 0, &dark)
	var got []int64
	srv.onMessage = func(m Message) { got = append(got, int64(m.Payload[0])) }
	n.run(61 * time.Millisecond) // both paths answered once, with equal RTTs: path0 preferred
	dark = true
	at := n.now
	for seq := 0; seq < 3; seq++ {
		coreSend(t, cli, 2, []byte{byte(seq)})
	}
	n.run(5 * time.Millisecond)
	if paths, _ := dataOn(cli, at); !slices.Equal(paths, []uint8{0, 0, 0}) {
		t.Fatalf("reliable frames took paths %v, want the preferred one", paths)
	}
	// The round at 200 ms finds path0's probes of 100 ms and 150 ms
	// unanswered: it dies, and its frames leave on path1 before the sweep
	// could call them lost.
	at = n.now
	n.run(150 * time.Millisecond)
	paths, seqs := dataOn(cli, at)
	if !slices.Equal(paths, []uint8{1, 1, 1}) || !slices.Equal(seqs, []int64{0, 1, 2}) {
		t.Fatalf("after the failover: frames %v on paths %v, want 0 1 2 on path 1 (deterministic order)", seqs, paths)
	}
	if f, retx := cli.core.paths.failover, cli.core.stream(2).retx; f != 3 || retx != 0 {
		t.Fatalf("failover frames %d, retransmissions %d; want 3 and none", f, retx)
	}
	if !slices.Equal(got, []int64{0, 1, 2}) {
		t.Fatalf("server got %v", got)
	}
}

func TestPathSetInteractivePinningAndStriping(t *testing.T) {
	n := newCoreNet(5 * time.Millisecond)
	streams := []StreamSpec{
		{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6},
		{ID: 5, Class: core.ClassFullBestEffort, Priority: core.PrioNoDelay, Rate: 1e7},
	}
	cli, _ := n.pair(Config{Streams: streams, StartBudget: 1e8}, Config{StartBudget: 1e7})
	cli.dialPaths(2, PathOptions{Session: 13, Stripe: true})
	n.run(60 * time.Millisecond)
	cli.core.paths.paths[0].rtt = measured(5 * time.Millisecond)
	cli.core.paths.paths[1].rtt = measured(30 * time.Millisecond)

	// Band-0 (interactive) frames all pin to path0, the lowest-SRTT path.
	at := n.now
	for seq := 0; seq < 5; seq++ {
		coreSend(t, cli, 1, []byte("pose"))
	}
	n.run(time.Millisecond)
	if paths, _ := dataOn(cli, at); !slices.Equal(paths, []uint8{0, 0, 0, 0, 0}) {
		t.Fatalf("interactive frames took paths %v, want path 0 alone", paths)
	}
	// Bulk (band-1, best-effort) frames stripe across both live paths.
	n.run(time.Millisecond)
	at = n.now
	for seq := 0; seq < 10; seq++ {
		coreSend(t, cli, 5, []byte("bulk"))
		n.run(time.Millisecond) // the stream's token bucket refills
	}
	paths, _ := dataOn(cli, at)
	if !slices.Contains(paths, 0) || !slices.Contains(paths, 1) {
		t.Fatalf("bulk frames did not stripe: %v", paths)
	}
}

// measured is a path estimator that has seen one probe answer, rtt.
func measured(rtt time.Duration) core.RTT {
	var r core.RTT
	r.Update(rtt)
	return r
}

// TestPathSetRebasesOntoTheEchoedFramesPath: the controller's delay sample
// is rebased onto the base RTT of the path that carried the frame the
// acknowledgement echoes — a best-effort frame as much as a reliable one,
// however recently another class took the other path.
func TestPathSetRebasesOntoTheEchoedFramesPath(t *testing.T) {
	p, err := newClientPaths([]PathConf{{Name: "wifi"}, {Name: "lte"}}, PathOptions{Session: 42, Stripe: true})
	if err != nil {
		t.Fatal(err)
	}
	lte := 0
	write := func(stamp uint64, class core.Class, prio core.Priority) {
		h := Header{Type: TypeData, Stream: 3, Class: uint8(class), Prio: uint8(prio), SendMicro: stamp}
		i := p.pick(&h, time.Time{})
		p.stamp(stamp, i)
		lte += i
	}
	ms := time.Millisecond
	if got := p.rebase(80*ms, 100); got != 80*ms {
		t.Errorf("before any probe answer: %v, want the sample passed through", got)
	}
	p.paths[0].rtt = measured(16 * ms)
	p.paths[1].rtt = measured(76 * ms)
	p.paths[0].state = PathDown
	write(100, core.ClassFullBestEffort, core.PrioLowest) // LTE: the only live path
	p.paths[0].state = PathUp
	write(200, core.ClassCritical, core.PrioHighest)      // pinned to WiFi
	write(300, core.ClassFullBestEffort, core.PrioLowest) // one stamp, striped
	write(300, core.ClassFullBestEffort, core.PrioLowest) // over both paths
	if lte != 2 {
		t.Fatalf("LTE carried %d frames, want the best-effort one and half the stripe", lte)
	}
	for _, tc := range []struct {
		rtt  time.Duration
		echo uint64
		want time.Duration
	}{
		{80 * ms, 100, 14 * ms}, // best-effort on LTE, after which a critical frame took WiFi
		{70 * ms, 100, 10 * ms}, // faster than LTE's fastest probe: no queue at all
		{20 * ms, 200, 14 * ms}, // critical on WiFi
		{80 * ms, 200, 74 * ms}, // a queue on WiFi, not hidden by LTE's base
		{20 * ms, 300, 14 * ms}, // the stripe's WiFi frame: LTE's base is above the sample
		{80 * ms, 300, 14 * ms}, // the stripe's LTE frame
		{80 * ms, 50, 14 * ms},  // a stamp never written: any path could have carried it
		{40 * ms, 50, 34 * ms},
	} {
		if got := p.rebase(tc.rtt, tc.echo); got != tc.want {
			t.Errorf("rebase(%v, echo %d) = %v, want %v", tc.rtt, tc.echo, got, tc.want)
		}
	}
}

// --- hub: a deterministic in-memory multi-endpoint network -----------------

// hub connects named endpoints; writes deliver synchronously to the
// destination's recv callback — or, given a clock, delay later on it.
// drop() installs directional loss.
type hub struct {
	mu    sync.Mutex
	eps   map[string]*hubEP
	drop  func(src, dst *net.UDPAddr, pkt []byte) bool
	clk   *manualClock
	delay time.Duration
}

type hubEP struct {
	h      *hub
	addr   *net.UDPAddr
	recv   func([]byte, *net.UDPAddr, int)
	closed bool
}

func newHub() *hub { return &hub{eps: make(map[string]*hubEP)} }

func (h *hub) endpoint(port int) *hubEP {
	ep := &hubEP{h: h, addr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}}
	h.mu.Lock()
	h.eps[ep.addr.String()] = ep
	h.mu.Unlock()
	return ep
}

func (e *hubEP) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	e.h.mu.Lock()
	dst := e.h.eps[addr.String()]
	drop := e.h.drop
	e.h.mu.Unlock()
	if dst == nil || dst.closed || dst.recv == nil {
		return len(b), nil
	}
	if drop != nil && drop(e.addr, addr, b) {
		return len(b), nil
	}
	cp := append([]byte(nil), b...)
	if e.h.clk != nil {
		e.h.clk.AfterFunc(e.h.delay, func() { dst.recv(cp, e.addr, 0) })
		return len(b), nil
	}
	dst.recv(cp, e.addr, 0)
	return len(b), nil
}

func (e *hubEP) LocalAddr() net.Addr                                       { return e.addr }
func (e *hubEP) Close() error                                              { e.closed = true; return nil }
func (e *hubEP) Start(fn func(pkt []byte, from *net.UDPAddr, backlog int)) { e.recv = fn }

// dialHub dials a multipath conn over hub endpoints wifi and lte.
func dialHub(t *testing.T, wifi, lte *hubEP, peer *net.UDPAddr, cfg Config, opts PathOptions) *Conn {
	t.Helper()
	c, err := DialPaths([]PathConf{{Name: "wifi", PC: wifi}, {Name: "lte", PC: lte}}, peer, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestPathSetAttributesPiggybackedAcks: in a request/response exchange no
// acknowledgement travels alone — the response carries the request's — so
// the conn credits what any frame's block acknowledges to the path that
// carried it, not only pure acks: after 200 exchanges striped over two
// paths nothing is left in flight and both paths have a delivery rate.
func TestPathSetAttributesPiggybackedAcks(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	h.clk, h.delay = clock, time.Millisecond
	wifi, lte := h.endpoint(1), h.endpoint(2)
	serverEP := h.endpoint(100)
	streams := []StreamSpec{{ID: 2, Class: core.ClassLossRecovery, Priority: core.PrioNoDiscard, Rate: 1e9}}
	var srv *Conn
	srv, err := ListenVia(serverEP, Config{Streams: streams, StartBudget: 1e9, Clock: clock,
		OnMessage: func(m Message) { mustSend(t, srv, 2, []byte("response")) }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	responses := 0
	cli := dialHub(t, wifi, lte, serverEP.addr, Config{Streams: streams, StartBudget: 1e9, Clock: clock,
		OnMessage: func(Message) { responses++ }}, PathOptions{Session: 41, Stripe: true})
	stepClock(clock, 50*time.Millisecond) // let probes register the paths

	const exchanges = 200
	for i := 0; i < exchanges; i++ {
		mustSend(t, cli, 2, bytes.Repeat([]byte{byte(i)}, 64))
		stepClock(clock, 4*time.Millisecond)
	}
	stepClock(clock, 50*time.Millisecond) // the last response's ack leaves on the timer
	if responses != exchanges || cli.Stats(2).Retx != 0 || srv.Stats(2).Retx != 0 {
		t.Fatalf("%d of %d responses, %d + %d retransmissions", responses, exchanges, cli.Stats(2).Retx, srv.Stats(2).Retx)
	}
	sent := read(srv, func(k *connCore) int64 { return k.acksSent })
	if rode := read(srv, func(k *connCore) int64 { return k.acksPiggybacked }); rode < exchanges-2 || sent > 2 {
		t.Fatalf("server: %d blocks rode responses and %d pure acks left, want nearly all %d riding", rode, sent, exchanges)
	}
	cli.mu.Lock()
	defer cli.mu.Unlock()
	if held := cli.core.stream(2).window.len(); held != 0 {
		t.Errorf("%d frames still in the send window", held)
	}
	for _, p := range cli.core.paths.paths {
		if p.deliveryRate <= 0 || p.sentFrames < exchanges/4 {
			t.Errorf("path %s: delivery rate %.0f B/s over %d frames sent, want both paths carrying and credited", p.name, p.deliveryRate, p.sentFrames)
		}
	}
}

// --- the server side -------------------------------------------------------

// TestPathRouterEndToEnd: a Mux takes a multipath client's paths on its
// one socket as one conn, keyed by the session whichever path a frame
// takes, answers on the client's best path, and serves a single-path peer
// beside it.
func TestPathRouterEndToEnd(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	wifi, lte := h.endpoint(1), h.endpoint(2)
	serverEP := h.endpoint(100)
	streams := []StreamSpec{{ID: 2, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 1e6}}
	var serverGot []string
	m, err := ListenMuxVia(serverEP, func(*net.UDPAddr) Config {
		return Config{Streams: streams, Clock: clock, OnMessage: func(msg Message) {
			serverGot = append(serverGot, string(msg.Payload))
			msg.Conn.Send(2, append([]byte("re:"), msg.Payload...)) //nolint:errcheck // checked by the client's count
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var clientGot []string
	cli := dialHub(t, wifi, lte, serverEP.addr, Config{Streams: streams, Clock: clock,
		OnMessage: func(msg Message) { clientGot = append(clientGot, string(msg.Payload)) }}, PathOptions{Session: 21})

	clock.advance(50 * time.Millisecond) // probes on both paths
	if conns := m.Conns(); len(conns) != 1 {
		t.Fatalf("the mux made %d conns of one multipath client", len(conns))
	}
	mustSend(t, cli, 2, []byte("a"))
	// Kill wifi's uplink: the next request rides the other path.
	h.mu.Lock()
	h.drop = func(src, _ *net.UDPAddr, _ []byte) bool { return src.Port == wifi.addr.Port }
	h.mu.Unlock()
	cli.mu.Lock()
	cli.core.paths.paths[0].state = PathDown
	cli.mu.Unlock()
	mustSend(t, cli, 2, []byte("b"))
	clock.advance(time.Millisecond)
	if !slices.Equal(serverGot, []string{"a", "b"}) || !slices.Equal(clientGot, []string{"re:a", "re:b"}) {
		t.Fatalf("server got %q, client %q", serverGot, clientGot)
	}
	if conns := m.Conns(); len(conns) != 1 {
		t.Fatalf("the mux made %d conns of one multipath client", len(conns))
	}

	// A single-path peer is a conn of its own, keyed by its address.
	plain, err := DialVia(h.endpoint(7), serverEP.addr, Config{Streams: streams, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	mustSend(t, plain, 2, []byte("c"))
	if conns := m.Conns(); len(conns) != 2 || serverGot[2] != "c" {
		t.Fatalf("%d conns after a single-path peer; server got %q", len(conns), serverGot)
	}
}

func TestPathRouterFECRepairsUplinkBurst(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	wifi, lte := h.endpoint(1), h.endpoint(2)
	serverEP := h.endpoint(100)
	var serverSeqs []int64
	srv, err := ListenVia(serverEP, Config{Clock: clock, OnMessage: func(m Message) { serverSeqs = append(serverSeqs, int64(m.Payload[0])) }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	streams := []StreamSpec{{ID: 2, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 1e9}}
	cli := dialHub(t, wifi, lte, serverEP.addr, Config{Streams: streams, StartBudget: 1e9, Clock: clock}, PathOptions{Session: 22, FEC: PathFEC{K: 4, M: 2}})
	clock.advance(50 * time.Millisecond) // register both paths

	// Burst-drop data frames 1 and 2 on wifi only; the parity, which rides
	// the other path, must regenerate them.
	var dropped int
	h.mu.Lock()
	h.drop = func(src, _ *net.UDPAddr, pkt []byte) bool {
		if hdr, _, err := DecodeFrame(pkt); err == nil && src.Port == wifi.addr.Port && hdr.Type == TypeData && (hdr.Seq == 1 || hdr.Seq == 2) {
			dropped++
			return true
		}
		return false
	}
	h.mu.Unlock()
	for seq := 0; seq < 4; seq++ {
		mustSend(t, cli, 2, bytes.Repeat([]byte{byte(seq)}, 48))
	}
	stepClock(clock, 2*time.Millisecond)
	if dropped != 2 {
		t.Fatalf("dropped %d frames, want 2", dropped)
	}
	if slices.Sort(serverSeqs); !slices.Equal(serverSeqs, []int64{0, 1, 2, 3}) {
		t.Fatalf("server saw %v, want all four", serverSeqs)
	}
	if repaired := read(srv, func(k *connCore) int64 { return k.paths.rx.repaired }); repaired != 2 {
		t.Fatalf("server repaired=%d want 2", repaired)
	}
}

// TestPathSetConnFailover runs a multipath conn against a ListenVia conn
// and kills the preferred path mid-stream: the conn must keep delivering
// without a reset and report the path down.
func TestPathSetConnFailover(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	wifi, lte := h.endpoint(1), h.endpoint(2)
	serverEP := h.endpoint(100)
	streams := []StreamSpec{{ID: 2, Class: core.ClassLossRecovery, Priority: core.PrioHighest, Rate: 1e6}}
	var gotMu sync.Mutex
	got := map[int64]bool{}
	srv, err := ListenVia(serverEP, Config{Streams: streams, Clock: clock,
		OnMessage: func(m Message) {
			gotMu.Lock()
			got[int64(m.Payload[0])] = true // the payload repeats its send index
			gotMu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var transitions []string
	cli := dialHub(t, wifi, lte, serverEP.addr, Config{Streams: streams, Clock: clock, RetxLimit: 8},
		PathOptions{Session: 31, OnPathState: func(path string, st PathState) { transitions = append(transitions, fmt.Sprint(path, ":", st)) }})

	clock.advance(50 * time.Millisecond) // let probes register the paths
	send := func(seq int64) {
		mustSend(t, cli, 2, bytes.Repeat([]byte{byte(seq)}, 64))
		clock.advance(5 * time.Millisecond)
	}
	for seq := int64(0); seq < 5; seq++ {
		send(seq)
	}
	// Kill wifi (the lower-index path both sides prefer while SRTTs tie).
	h.mu.Lock()
	h.drop = func(src, dst *net.UDPAddr, _ []byte) bool {
		return src.Port == wifi.addr.Port || dst.Port == wifi.addr.Port
	}
	h.mu.Unlock()
	for seq := int64(5); seq < 10; seq++ {
		send(seq)
	}
	stepClock(clock, 300*time.Millisecond)

	gotMu.Lock()
	defer gotMu.Unlock()
	for seq := int64(0); seq < 10; seq++ {
		if !got[seq] {
			t.Fatalf("seq %d never delivered after failover (got %v)", seq, got)
		}
	}
	if !slices.Contains(transitions, "wifi:down") {
		t.Fatalf("wifi was never declared down: %v", transitions)
	}
	if st := read(cli, func(k *connCore) State { return k.state }); st != StateActive {
		t.Fatalf("conn %s across the failover", st)
	}
}
