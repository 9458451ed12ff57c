package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marnet/internal/core"
)

// --- codec -----------------------------------------------------------------

func TestPathCodecDataRoundTrip(t *testing.T) {
	inner, err := AppendFrame(nil, Header{Type: TypeData, Stream: 3, Class: uint8(core.ClassLossRecovery),
		Prio: uint8(core.PrioHighest), Seq: 42}, []byte("pose-update"))
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendPathData(nil, 0xDEADBEEF, 1, 77, 3, inner)
	if !IsPathFrame(frame) {
		t.Fatal("encoded path frame not recognized")
	}
	if DecodeFrame(frame); true {
		if _, _, err := DecodeFrame(frame); err == nil {
			t.Fatal("path frame must not decode as a plain ARTP frame")
		}
	}
	hdr, body, err := DecodePathHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != PathKindData || hdr.Session != 0xDEADBEEF || hdr.PathID != 1 {
		t.Fatalf("header mismatch: %+v", hdr)
	}
	group, index, gotInner, err := DecodePathData(body)
	if err != nil {
		t.Fatal(err)
	}
	if group != 77 || index != 3 || !bytes.Equal(gotInner, inner) {
		t.Fatalf("data mismatch: group=%d index=%d", group, index)
	}
}

func TestPathCodecProbeRoundTrip(t *testing.T) {
	p := PathProbe{Seq: 9, SendMicro: 123456, SRTTMicro: 4200, IntervalMicro: 50000, State: uint8(PathDegraded)}
	for _, kind := range []uint8{PathKindProbe, PathKindProbeAck} {
		frame := AppendPathProbe(nil, kind, 7, 0, p)
		hdr, body, err := DecodePathHeader(frame)
		if err != nil || hdr.Kind != kind {
			t.Fatalf("kind %d: %v %+v", kind, err, hdr)
		}
		got, err := DecodePathProbe(body)
		if err != nil || got != p {
			t.Fatalf("probe mismatch: %v %+v", err, got)
		}
	}
}

func TestPathCodecParityRoundTrip(t *testing.T) {
	shard := bytes.Repeat([]byte{0xAB}, 64)
	h := PathParityHeader{Group: 5, Index: 4, K: 4, M: 2, Actual: 3, ShardLen: 64}
	frame := AppendPathParity(nil, 99, 1, h, shard)
	hdr, body, err := DecodePathHeader(frame)
	if err != nil || hdr.Kind != PathKindParity {
		t.Fatal(err)
	}
	got, gotShard, err := DecodePathParity(body)
	if err != nil || got != h || !bytes.Equal(gotShard, shard) {
		t.Fatalf("parity mismatch: %v %+v", err, got)
	}
}

func TestPathCodecRejectsGarbage(t *testing.T) {
	if IsPathFrame([]byte{1, 2, 3}) {
		t.Fatal("short buffer recognized as path frame")
	}
	plain, _ := AppendFrame(nil, Header{Type: TypeData, Stream: 1, Seq: 1}, []byte("x"))
	if IsPathFrame(plain) {
		t.Fatal("plain ARTP frame recognized as path frame")
	}
	if _, _, err := DecodePathHeader(plain); !errors.Is(err, ErrNotPathFrame) {
		t.Fatalf("want ErrNotPathFrame, got %v", err)
	}
	bad := AppendPathData(nil, 1, 0, 0, 0, []byte("x"))
	bad[3] = 99 // unknown kind
	if _, _, err := DecodePathHeader(bad); !errors.Is(err, ErrBadPathKind) {
		t.Fatalf("want ErrBadPathKind, got %v", err)
	}
	if _, _, _, err := DecodePathData([]byte{1, 2}); !errors.Is(err, ErrPathTruncated) {
		t.Fatalf("want ErrPathTruncated, got %v", err)
	}
	// Parity geometry violations must all be rejected.
	shard := make([]byte, 8)
	for _, h := range []PathParityHeader{
		{Group: 0, Index: 4, K: 4, M: 2, ShardLen: 8},            // group 0 reserved
		{Group: 1, Index: 2, K: 4, M: 2, ShardLen: 8},            // index below K
		{Group: 1, Index: 6, K: 4, M: 2, ShardLen: 8},            // index past K+M
		{Group: 1, Index: 4, K: 4, M: 2, Actual: 5, ShardLen: 8}, // actual > K
		{Group: 1, Index: 4, K: 0, M: 2, ShardLen: 8},            // zero K
		{Group: 1, Index: 4, K: 4, M: 0, ShardLen: 8},            // zero M
	} {
		frame := AppendPathParity(nil, 1, 0, h, shard)
		_, body, err := DecodePathHeader(frame)
		if err != nil {
			continue // bad kind paths can't even build; fine
		}
		if _, _, err := DecodePathParity(body); err == nil {
			t.Fatalf("geometry %+v accepted", h)
		}
	}
	// Truncated shard.
	ok := AppendPathParity(nil, 1, 0, PathParityHeader{Group: 1, Index: 4, K: 4, M: 2, ShardLen: 8}, shard)
	_, body, _ := DecodePathHeader(ok[:len(ok)-3])
	if _, _, err := DecodePathParity(body); err == nil {
		t.Fatal("truncated shard accepted")
	}
}

// --- cross-path FEC --------------------------------------------------------

// innerFrame builds a distinguishable reliable data frame.
func innerFrame(t testing.TB, seq int64, size int) []byte {
	t.Helper()
	payload := bytes.Repeat([]byte{byte(seq)}, size)
	f, err := AppendFrame(nil, Header{Type: TypeData, Stream: 2, Class: uint8(core.ClassLossRecovery),
		Prio: uint8(core.PrioHighest), Seq: seq}, payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPathFECRepairsDrops(t *testing.T) {
	tx, err := newFECGroups(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rx := newFECReassembler()

	type sent struct {
		group  uint32
		index  uint8
		inner  []byte
		parity []parityOut
	}
	var frames []sent
	for seq := int64(0); seq < 4; seq++ {
		inner := innerFrame(t, seq, 40+10*int(seq)) // unequal sizes exercise padding
		g, i, parity := tx.place(0, inner)
		frames = append(frames, sent{g, i, inner, parity})
	}
	if frames[3].parity == nil {
		t.Fatal("full group emitted no parity")
	}
	// Deliver frames 0 and 3; drop 1 and 2 (a 2-burst); then the parity.
	var recovered [][]byte
	recovered = append(recovered, rx.onData(frames[0].group, frames[0].index, frames[0].inner)...)
	recovered = append(recovered, rx.onData(frames[3].group, frames[3].index, frames[3].inner)...)
	for _, p := range frames[3].parity {
		recovered = append(recovered, rx.onParity(p.hdr, p.shard)...)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d frames, want 2", len(recovered))
	}
	if !bytes.Equal(recovered[0], frames[1].inner) || !bytes.Equal(recovered[1], frames[2].inner) {
		t.Fatal("recovered frames do not match the dropped originals")
	}
	if rx.Repaired != 2 || rx.Unrepaired != 0 {
		t.Fatalf("accounting: repaired=%d unrepaired=%d", rx.Repaired, rx.Unrepaired)
	}
}

func TestPathFECShortFlush(t *testing.T) {
	tx, _ := newFECGroups(4, 2)
	rx := newFECReassembler()
	a := innerFrame(t, 1, 30)
	b := innerFrame(t, 2, 50)
	g1, _, parity := tx.place(0, a)
	if parity != nil {
		t.Fatal("premature parity")
	}
	tx.place(0, b)
	out := tx.flush()
	if len(out) != 2 {
		t.Fatalf("flush produced %d shards, want 2", len(out))
	}
	if out[0].hdr.Actual != 2 || out[0].hdr.K != 4 {
		t.Fatalf("short-flush header: %+v", out[0].hdr)
	}
	// Drop frame a entirely; parity + frame b must still regenerate it,
	// because indexes 2..3 are implicit zero shards.
	rx.onData(g1, 1, b)
	var rec [][]byte
	for _, p := range out {
		rec = append(rec, rx.onParity(p.hdr, p.shard)...)
	}
	if len(rec) != 1 || !bytes.Equal(rec[0], a) {
		t.Fatalf("short-flush repair failed: %d frames", len(rec))
	}
}

func TestPathFECUnrepairedAccounting(t *testing.T) {
	tx, _ := newFECGroups(2, 1)
	rx := newFECReassembler()
	a := innerFrame(t, 1, 20)
	b := innerFrame(t, 2, 20)
	g, _, _ := tx.place(0, a)
	_, _, parity := tx.place(0, b)
	// Both data frames lost, only parity arrives: 1 shard of 2 needed.
	for _, p := range parity {
		if got := rx.onParity(p.hdr, p.shard); got != nil {
			t.Fatal("impossible reconstruction")
		}
	}
	rx.drain()
	if rx.Unrepaired != 2 {
		t.Fatalf("unrepaired=%d want 2 (group %d)", rx.Unrepaired, g)
	}
}

// --- hub: a deterministic in-memory multi-endpoint network -----------------

// measured is a subpath estimator that has seen one probe answer, rtt.
func measured(rtt time.Duration) core.RTT {
	var r core.RTT
	r.Update(rtt)
	return r
}

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

// --- path set state machine ------------------------------------------------

func TestPathSetProbeStateMachine(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	wifi, lte := h.endpoint(1), h.endpoint(2)
	server := h.endpoint(100)
	// The server endpoint answers probes like a router would.
	server.Start(func(pkt []byte, from *net.UDPAddr, _ int) {
		if IsPathFrame(pkt) {
			if hdr, _, err := DecodePathHeader(pkt); err == nil && hdr.Kind == PathKindProbe {
				ack := append([]byte(nil), pkt...)
				ack[3] = PathKindProbeAck
				server.WriteToUDP(ack, from)
			}
		}
	})

	var transitions []string
	var tmu sync.Mutex
	ps, err := NewPathSet(
		[]PathConf{{Name: "wifi", PC: wifi}, {Name: "lte", PC: lte}},
		PathSetConfig{
			Session: 11, Clock: clock, Peer: server.addr,
			ProbeInterval: 50 * time.Millisecond, ProbeMiss: 2,
			OnPathState: func(path string, st PathState) {
				tmu.Lock()
				transitions = append(transitions, fmt.Sprintf("%s:%s", path, st))
				tmu.Unlock()
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.Start(func([]byte, *net.UDPAddr, int) {})

	for i := 0; i < 4; i++ {
		clock.advance(50 * time.Millisecond)
	}
	// Inline hub: RTT is 0 virtual time, SRTT stays 0 — but each path's
	// last probe must have been answered and the path must be up.
	for i, name := range []string{"wifi", "lte"} {
		if st, pending := pathState(ps, i); st != PathUp || pending != 0 {
			t.Fatalf("path %s not healthy: %s with %d probes unanswered", name, st, pending)
		}
	}

	// Blackhole wifi in both directions.
	h.mu.Lock()
	h.drop = func(src, dst *net.UDPAddr, _ []byte) bool {
		return src.String() == wifi.addr.String() || dst.String() == wifi.addr.String()
	}
	h.mu.Unlock()

	// Two unanswered probes declare the path down; one more fire moves it
	// to probing.
	for i := 0; i < 3; i++ {
		clock.advance(50 * time.Millisecond)
	}
	if st, _ := pathState(ps, 0); st != PathDown && st != PathProbing {
		t.Fatalf("wifi should be down/probing, is %s", st)
	}
	if st, _ := pathState(ps, 1); st != PathUp {
		t.Fatalf("lte should be up, is %s", st)
	}
	tmu.Lock()
	downs := strings.Count(strings.Join(transitions, " "), "wifi:"+PathDown.String())
	tmu.Unlock()
	if downs != 1 {
		t.Fatalf("wifi downs=%d want 1", downs)
	}

	// Heal the network: the next answered probe revives the path.
	h.mu.Lock()
	h.drop = nil
	h.mu.Unlock()
	clock.advance(50 * time.Millisecond)
	if got, _ := pathState(ps, 0); got != PathUp {
		t.Fatalf("wifi should recover to up, is %s", got)
	}

	tmu.Lock()
	defer tmu.Unlock()
	want := []string{"wifi:down", "wifi:probing", "wifi:up"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

func TestPathSetFailoverEvacuatesInflight(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	wifi, lte := h.endpoint(1), h.endpoint(2)
	server := h.endpoint(100)
	server.Start(func([]byte, *net.UDPAddr, int) {}) // mute server: nothing acked

	ps, err := NewPathSet(
		[]PathConf{{Name: "wifi", PC: wifi}, {Name: "lte", PC: lte}},
		PathSetConfig{Session: 12, Clock: clock, Peer: server.addr,
			ProbeInterval: 50 * time.Millisecond, ProbeMiss: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.Start(func([]byte, *net.UDPAddr, int) {})

	var requeued []frameKey
	ps.mu.Lock()
	ps.requeue = func(keys []frameKey) { requeued = append(requeued, keys...) }
	// Pin wifi as the best path so the reliable frames land on it.
	ps.paths[0].rtt = measured(5 * time.Millisecond)
	ps.paths[1].rtt = measured(30 * time.Millisecond)
	ps.mu.Unlock()

	for seq := int64(0); seq < 3; seq++ {
		if _, err := ps.WriteToUDP(innerFrame(t, seq, 32), server.addr); err != nil {
			t.Fatal(err)
		}
	}
	// No probe was ever answered (mute server): after ProbeMiss fires the
	// first path to be declared down evacuates its in-flight frames.
	clock.advance(50 * time.Millisecond)
	clock.advance(50 * time.Millisecond)
	clock.advance(50 * time.Millisecond)
	if len(requeued) != 3 {
		t.Fatalf("requeued %d frames, want 3 (stats: %+v)", len(requeued), ps.Stats())
	}
	for i, k := range requeued {
		if k.stream != 2 || k.seq != int64(i) {
			t.Fatalf("requeued[%d] = %+v, want stream 2 seq %d (deterministic order)", i, k, i)
		}
	}
	if got := ps.Stats().FailoverFrames; got != 3 {
		t.Fatalf("FailoverFrames=%d want 3", got)
	}
}

func TestPathSetInteractivePinningAndStriping(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	wifi, lte := h.endpoint(1), h.endpoint(2)
	server := h.endpoint(100)
	var got []uint8 // path id of each delivered data frame
	server.Start(func(pkt []byte, _ *net.UDPAddr, _ int) {
		if hdr, _, err := DecodePathHeader(pkt); err == nil && hdr.Kind == PathKindData {
			got = append(got, hdr.PathID)
		}
	})

	ps, err := NewPathSet(
		[]PathConf{{Name: "wifi", PC: wifi}, {Name: "lte", PC: lte}},
		PathSetConfig{Session: 13, Clock: clock, Peer: server.addr, Stripe: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.Start(func([]byte, *net.UDPAddr, int) {})
	ps.mu.Lock()
	ps.paths[0].rtt = measured(5 * time.Millisecond)
	ps.paths[1].rtt = measured(30 * time.Millisecond)
	ps.mu.Unlock()

	// Band-0 (interactive) frames all pin to wifi, the lowest-SRTT path.
	for seq := int64(0); seq < 5; seq++ {
		ps.WriteToUDP(innerFrame(t, seq, 16), server.addr)
	}
	for i, id := range got {
		if id != 0 {
			t.Fatalf("interactive frame %d went to path %d, want 0", i, id)
		}
	}

	// Bulk (band-1, best-effort) frames stripe across both live paths.
	got = got[:0]
	for seq := int64(0); seq < 10; seq++ {
		payload := []byte("bulk")
		f, _ := AppendFrame(nil, Header{Type: TypeData, Stream: 5, Class: uint8(core.ClassFullBestEffort),
			Prio: uint8(core.PrioNoDelay), Seq: seq}, payload)
		ps.WriteToUDP(f, server.addr)
	}
	counts := map[uint8]int{}
	for _, id := range got {
		counts[id]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("bulk frames did not stripe: %v", counts)
	}
}

// TestPathSetAttributesPiggybackedAcks: in a request/response exchange no
// acknowledgement travels alone — the response carries the request's — so
// the path set credits what any frame's block acknowledges, not only pure
// acks: after 200 exchanges striped over two paths nothing is left in flight
// and both paths have a delivery rate.
func TestPathSetAttributesPiggybackedAcks(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	h.clk, h.delay = clock, time.Millisecond
	wifi, lte := h.endpoint(1), h.endpoint(2)
	serverEP := h.endpoint(100)
	router := NewPathRouter(serverEP, RouterConfig{Clock: clock})
	streams := []StreamSpec{{ID: 2, Class: core.ClassLossRecovery, Priority: core.PrioNoDiscard, Rate: 1e9}}
	var srv *Conn
	srv, err := ListenVia(router, Config{Streams: streams, StartBudget: 1e9, Clock: clock,
		OnMessage: func(m Message) { mustSend(t, srv, 2, []byte("response")) }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ps, err := NewPathSet(
		[]PathConf{{Name: "wifi", PC: wifi}, {Name: "lte", PC: lte}},
		PathSetConfig{Session: 41, Clock: clock, Peer: serverEP.addr, ProbeInterval: 25 * time.Millisecond, Stripe: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	responses := 0
	cli, err := DialVia(ps, serverEP.addr, Config{Streams: streams, StartBudget: 1e9, Clock: clock,
		OnMessage: func(Message) { responses++ }})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	stepClock(clock, 25*time.Millisecond) // let probes register the paths

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
	ps.mu.Lock()
	inflight := len(ps.inflight)
	ps.mu.Unlock()
	if inflight != 0 {
		t.Errorf("%d frames still in flight in the path set: riding acks were not attributed", inflight)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.paths {
		if p.deliveryRate <= 0 || p.sentFrames < exchanges/4 {
			t.Errorf("path %s: delivery rate %.0f B/s over %d frames sent, want both paths carrying and credited", p.name, p.deliveryRate, p.sentFrames)
		}
	}
}

// TestPathSetRebasesOntoTheEchoedFramesPath: the controller's delay sample
// is rebased onto the base RTT of the path that carried the frame the
// acknowledgement echoes — a best-effort frame as much as a reliable one,
// however recently another class took the other path.
func TestPathSetRebasesOntoTheEchoedFramesPath(t *testing.T) {
	h := newHub()
	wifi, lte := h.endpoint(1), h.endpoint(2)
	server := h.endpoint(100)
	server.Start(func([]byte, *net.UDPAddr, int) {})
	ps, err := NewPathSet(
		[]PathConf{{Name: "wifi", PC: wifi}, {Name: "lte", PC: lte}},
		PathSetConfig{Session: 42, Clock: newManualClock(), Peer: server.addr, Stripe: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ms := time.Millisecond
	write := func(stamp uint64, class core.Class, prio core.Priority) {
		t.Helper()
		f, err := AppendFrame(nil, Header{Type: TypeData, Stream: 3, Class: uint8(class), Prio: uint8(prio), SendMicro: stamp}, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ps.WriteToUDP(f, server.addr); err != nil {
			t.Fatal(err)
		}
	}
	if got := ps.rebaseRTT(80*ms, 100); got != 80*ms {
		t.Errorf("before any probe answer: %v, want the sample passed through", got)
	}
	ps.mu.Lock()
	ps.paths[0].rtt = measured(16 * ms)
	ps.paths[1].rtt = measured(76 * ms)
	ps.paths[0].state = PathDown
	ps.mu.Unlock()
	write(100, core.ClassFullBestEffort, core.PrioLowest) // LTE: the only live path
	ps.mu.Lock()
	ps.paths[0].state = PathUp
	ps.mu.Unlock()
	write(200, core.ClassCritical, core.PrioHighest)      // pinned to WiFi
	write(300, core.ClassFullBestEffort, core.PrioLowest) // one stamp, striped
	write(300, core.ClassFullBestEffort, core.PrioLowest) // over both paths
	if n := ps.Stats().Paths[1].SentFrames; n != 2 {
		t.Fatalf("LTE carried %d frames, want the best-effort one and half the stripe", n)
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
		if got := ps.rebaseRTT(tc.rtt, tc.echo); got != tc.want {
			t.Errorf("rebaseRTT(%v, echo %d) = %v, want %v", tc.rtt, tc.echo, got, tc.want)
		}
	}
}

// pathState reads subflow i's state and how many of its probes are still
// unanswered.
func pathState(ps *PathSet, i int) (PathState, int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.paths[i].state, ps.paths[i].pending
}

// --- router ----------------------------------------------------------------

func TestPathRouterEndToEnd(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	wifi, lte := h.endpoint(1), h.endpoint(2)
	serverEP := h.endpoint(100)

	router := NewPathRouter(serverEP, RouterConfig{Clock: clock})
	var serverGot [][]byte
	var serverFrom []*net.UDPAddr
	router.Start(func(pkt []byte, from *net.UDPAddr, _ int) {
		serverGot = append(serverGot, append([]byte(nil), pkt...))
		serverFrom = append(serverFrom, from)
	})
	defer router.Close()

	ps, err := NewPathSet(
		[]PathConf{{Name: "wifi", PC: wifi}, {Name: "lte", PC: lte}},
		PathSetConfig{Session: 21, Clock: clock, Peer: serverEP.addr,
			ProbeInterval: 50 * time.Millisecond, FEC: PathFEC{K: 2, M: 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var clientGot [][]byte
	ps.Start(func(pkt []byte, _ *net.UDPAddr, _ int) {
		clientGot = append(clientGot, append([]byte(nil), pkt...))
	})

	// Probes teach the router the client's paths and give the client RTTs.
	clock.advance(50 * time.Millisecond)
	router.mu.Lock()
	sessions := len(router.sessions)
	router.mu.Unlock()
	_, pendingWiFi := pathState(ps, 0)
	if _, pendingLTE := pathState(ps, 1); sessions != 1 || pendingWiFi != 0 || pendingLTE != 0 {
		t.Fatalf("router after probes: %d sessions, probes unanswered on wifi %d and lte %d", sessions, pendingWiFi, pendingLTE)
	}

	// Uplink data arrives at the server under the canonical address, no
	// matter which subflow carried it.
	in1, in2 := innerFrame(t, 1, 40), innerFrame(t, 2, 40)
	ps.WriteToUDP(in1, serverEP.addr)
	ps.WriteToUDP(in2, serverEP.addr)
	if len(serverGot) != 2 {
		t.Fatalf("server saw %d frames, want 2", len(serverGot))
	}
	if !bytes.Equal(serverGot[0], in1) || !bytes.Equal(serverGot[1], in2) {
		t.Fatal("inner frames corrupted in transit")
	}
	canon := canonicalAddr(21)
	for _, from := range serverFrom {
		if from.String() != canon.String() {
			t.Fatalf("delivery from %v, want canonical %v", from, canon)
		}
	}

	// Downlink: writing to the canonical address routes onto a client path.
	down := innerFrame(t, 3, 40)
	if _, err := router.WriteToUDP(down, canon); err != nil {
		t.Fatal(err)
	}
	if len(clientGot) != 1 || !bytes.Equal(clientGot[0], down) {
		t.Fatalf("client saw %d downlink frames", len(clientGot))
	}

	// A legacy (non-path) datagram passes straight through.
	plain, _ := AppendFrame(nil, Header{Type: TypePing, Stream: 0, Seq: 0}, nil)
	legacy := h.endpoint(7)
	before := len(serverGot)
	legacy.WriteToUDP(plain, serverEP.addr)
	if len(serverGot) != before+1 {
		t.Fatalf("server saw %d legacy datagrams, want 1", len(serverGot)-before)
	}
	if !bytes.Equal(serverGot[len(serverGot)-1], plain) {
		t.Fatal("legacy datagram not delivered verbatim")
	}
}

func TestPathRouterFECRepairsUplinkBurst(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	wifi, lte := h.endpoint(1), h.endpoint(2)
	serverEP := h.endpoint(100)

	router := NewPathRouter(serverEP, RouterConfig{Clock: clock})
	var serverSeqs []int64
	router.Start(func(pkt []byte, _ *net.UDPAddr, _ int) {
		if hdr, _, err := DecodeFrame(pkt); err == nil && hdr.Type == TypeData {
			serverSeqs = append(serverSeqs, hdr.Seq)
		}
	})
	defer router.Close()

	ps, err := NewPathSet(
		[]PathConf{{Name: "wifi", PC: wifi}, {Name: "lte", PC: lte}},
		PathSetConfig{Session: 22, Clock: clock, Peer: serverEP.addr,
			ProbeInterval: 50 * time.Millisecond, FEC: PathFEC{K: 4, M: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.Start(func([]byte, *net.UDPAddr, int) {})
	clock.advance(50 * time.Millisecond) // register both paths

	// Burst-drop data frames 1 and 2 on the wifi subflow only; parity
	// (which rides the other path) must regenerate them.
	var dropped int
	h.mu.Lock()
	h.drop = func(src, _ *net.UDPAddr, pkt []byte) bool {
		if src.String() != wifi.addr.String() || !IsPathFrame(pkt) {
			return false
		}
		hdr, body, err := DecodePathHeader(pkt)
		if err != nil || hdr.Kind != PathKindData {
			return false
		}
		_, _, inner, err := DecodePathData(body)
		if err != nil {
			return false
		}
		ih, _, err := DecodeFrame(inner)
		if err == nil && (ih.Seq == 1 || ih.Seq == 2) {
			dropped++
			return true
		}
		return false
	}
	h.mu.Unlock()

	for seq := int64(0); seq < 4; seq++ {
		ps.WriteToUDP(innerFrame(t, seq, 48), serverEP.addr)
	}
	if dropped != 2 {
		t.Fatalf("dropped %d frames, want 2", dropped)
	}
	if len(serverSeqs) != 4 {
		t.Fatalf("server saw %d data frames, want 4 (repair failed): %v", len(serverSeqs), serverSeqs)
	}
	if st := router.Stats(); st.FECRepaired != 2 {
		t.Fatalf("router repaired=%d want 2", st.FECRepaired)
	}
}

// TestPathSetConnFailover runs a real Conn over a PathSet against a
// router-fronted Conn and kills the primary path mid-stream: the session
// must keep delivering without a reset and the failover hook must fire.
func TestPathSetConnFailover(t *testing.T) {
	clock := newManualClock()
	h := newHub()
	wifi, lte := h.endpoint(1), h.endpoint(2)
	serverEP := h.endpoint(100)

	router := NewPathRouter(serverEP, RouterConfig{Clock: clock})
	streams := []StreamSpec{{ID: 2, Class: core.ClassLossRecovery,
		Priority: core.PrioHighest, Rate: 1e6}}
	var gotMu sync.Mutex
	got := map[int64]bool{}
	srv, err := ListenVia(router, Config{Streams: streams, Clock: clock,
		OnMessage: func(m Message) {
			gotMu.Lock()
			got[int64(m.Payload[0])] = true // the payload repeats its send index
			gotMu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wifiDowns atomic.Int64
	ps, err := NewPathSet(
		[]PathConf{{Name: "wifi", PC: wifi}, {Name: "lte", PC: lte}},
		PathSetConfig{Session: 31, Clock: clock, Peer: serverEP.addr,
			ProbeInterval: 25 * time.Millisecond, ProbeMiss: 2,
			OnPathState: func(path string, st PathState) {
				if path == "wifi" && st == PathDown {
					wifiDowns.Add(1)
				}
			}},
	)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialVia(ps, serverEP.addr, Config{Streams: streams, Clock: clock, RetxLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	clock.advance(25 * time.Millisecond) // let probes register the paths
	send := func(seq int64) {
		ok, err := cli.Send(2, bytes.Repeat([]byte{byte(seq)}, 64))
		if err != nil || !ok {
			t.Fatalf("send %d: admitted=%v err=%v", seq, ok, err)
		}
		clock.advance(5 * time.Millisecond)
	}
	for seq := int64(0); seq < 5; seq++ {
		send(seq)
	}

	// Kill wifi (the lower-index path both sides prefer while SRTTs tie).
	h.mu.Lock()
	h.drop = func(src, dst *net.UDPAddr, _ []byte) bool {
		return src.String() == wifi.addr.String() || dst.String() == wifi.addr.String()
	}
	h.mu.Unlock()
	for seq := int64(5); seq < 10; seq++ {
		send(seq)
	}
	// Step in probe-interval increments (manualClock.advance fires a
	// self-rearming chain at most once per call): probes declare wifi
	// down, the evacuation requeues, and the pace/sweep chains resend.
	for i := 0; i < 12; i++ {
		clock.advance(25 * time.Millisecond)
	}

	gotMu.Lock()
	defer gotMu.Unlock()
	for seq := int64(0); seq < 10; seq++ {
		if !got[seq] {
			t.Fatalf("seq %d never delivered after failover (got %v, stats %+v)", seq, got, ps.Stats())
		}
	}
	if wifiDowns.Load() == 0 {
		t.Fatal("wifi was never declared down")
	}
}
