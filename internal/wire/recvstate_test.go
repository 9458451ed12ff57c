package wire

import (
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/vclock"
)

// The receive state of a stream is a fixed window however long the stream
// runs and however much it loses: 100k sequences with 5 % loss leave it
// exactly as large as it started (the NACK-count map it replaced kept an
// entry for every sequence ever lost), every lost sequence is NACKed
// exactly once, and a frame replayed from 3000 sequences back — older than
// the window — is a duplicate, not a second delivery.
func TestRecvWindowConstantUnderLoss(t *testing.T) {
	delivered := make(map[int64]int)
	c := newCoreNet(0).end(Config{})
	c.onMessage = func(m Message) { delivered[int64(binary.LittleEndian.Uint64(m.Payload))]++ }
	frame := func(seq int64) []byte {
		f, err := AppendFrame(nil, Header{
			Type: TypeData, Stream: 7, Class: uint8(core.ClassLossRecovery),
			Prio: uint8(core.PrioHighest), Seq: seq,
		}, binary.LittleEndian.AppendUint64(nil, uint64(seq)))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	const total = 100_000
	rng := rand.New(rand.NewSource(15))
	lost := make(map[int64]bool)
	sent := 0
	c.receive(frame(0)) // creates the stream
	sent++
	w := c.core.stream(7).recv
	size := int(w.Next() - w.Floor())
	if size != recvWindow {
		t.Fatalf("receive window = %d slots, want %d", size, recvWindow)
	}
	for seq := int64(1); seq < total; seq++ {
		if seq < total-1 && rng.Float64() < 0.05 { // the last frame arrives, so every hole is seen
			lost[seq] = true
			continue
		}
		c.receive(frame(seq))
		sent++
	}
	if len(lost) < total/25 {
		t.Fatalf("only %d of %d sequences lost: the loss process is broken", len(lost), total)
	}

	acks, nacked := 0, make(map[int64]int)
	for _, f := range c.written {
		h, payload, err := DecodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		switch h.Type {
		case TypeAck:
			acks++
		case TypeNack:
			missing, err := DecodeNackPayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, seq := range missing {
				nacked[seq]++
			}
		}
	}
	st := c.core.stream(7)
	if got := int(st.recv.Next() - st.recv.Floor()); got != size {
		t.Errorf("receive window grew from %d to %d slots", size, got)
	}
	if got := st.recv.Next(); got != total {
		t.Errorf("expected sequence = %d, want %d", got, total)
	}
	if len(delivered) != sent {
		t.Errorf("delivered %d distinct sequences of %d sent", len(delivered), sent)
	}
	if acks != sent {
		t.Errorf("acked %d of %d frames", acks, sent)
	}
	if len(nacked) != len(lost) {
		t.Errorf("NACKed %d sequences, lost %d", len(nacked), len(lost))
	}
	for seq, n := range nacked {
		if !lost[seq] || n != 1 {
			t.Fatalf("sequence %d NACKed %d times (lost: %v), want once and only if lost", seq, n, lost[seq])
		}
	}

	// A retransmission inside the window fills its hole; a replay from
	// beyond it cannot be told from a duplicate and is treated as one.
	var inWindow, tooOld int64 = -1, -1
	for seq := int64(total - 1); seq >= 0 && (inWindow < 0 || tooOld < 0); seq-- {
		switch {
		case lost[seq] && inWindow < 0 && seq >= total-recvWindow:
			inWindow = seq
		case !lost[seq] && tooOld < 0 && seq <= total-3000:
			tooOld = seq
		}
	}
	before := st.snapshot()
	c.receive(frame(inWindow))
	c.receive(frame(tooOld))
	after := st.snapshot()
	if delivered[inWindow] != 1 {
		t.Errorf("late sequence %d inside the window delivered %d times, want 1", inWindow, delivered[inWindow])
	}
	if delivered[tooOld] != 1 {
		t.Errorf("sequence %d replayed from %d back delivered %d times, want 1", tooOld, total-tooOld, delivered[tooOld])
	}
	if d := after.Duplicates - before.Duplicates; d != 1 {
		t.Errorf("Duplicates rose by %d, want 1 (the replay)", d)
	}
	if d := after.Received - before.Received; d != 1 {
		t.Errorf("Received rose by %d, want 1 (the late arrival)", d)
	}
}

// TestArrivalRateFeedsController: what the controller is told about the
// peer is the wire bits of new data frames over the time they took to
// arrive, read off the arrivals themselves — a window closes on the first
// arrival at least core.BaseRTTFloor after it opened, never on a timer, and
// a duplicate is not traffic the peer's application offered.
func TestArrivalRateFeedsController(t *testing.T) {
	n := newCoreNet(0)
	c := n.end(Config{})
	frame := func(seq int64) []byte {
		f, err := AppendFrame(nil, Header{Type: TypeData, Stream: 7, Class: uint8(core.ClassLossRecovery), Seq: seq}, make([]byte, 600))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	peerRate := c.core.ctrl.PeerRate
	seq, wireBits := int64(0), float64(len(frame(0))*8)
	for _, tc := range []struct {
		frames int
		every  time.Duration
	}{{101, time.Millisecond}, {41, 3 * time.Millisecond}, {400, 50 * time.Microsecond}} {
		for i := 0; i < tc.frames; i++ {
			if i > 0 {
				n.run(tc.every)
			}
			c.receive(frame(seq))
			c.receive(frame(seq)) // every frame twice: the copy must not count
			seq++
		}
		want := wireBits / tc.every.Seconds()
		if got := peerRate(); got < want*0.99 || got > want*1.01 {
			t.Fatalf("%d frames of %.0f bits, one every %v: observed %.0f b/s, want %.0f within 1 %%", tc.frames, wireBits, tc.every, got, want)
		}
	}
	if got := c.core.stream(7).snapshot(); got.Received != seq || got.Duplicates != seq {
		t.Fatalf("received %d, duplicates %d, want %d of each", got.Received, got.Duplicates, seq)
	}

	// Silence closes nothing: the reading stands until the next arrival, which
	// then averages over the silence.
	before := peerRate()
	n.run(time.Second)
	if got := peerRate(); got != before {
		t.Fatalf("the reading moved from %.0f to %.0f with no arrival", before, got)
	}
	c.receive(frame(seq))
	if got := peerRate(); got <= 0 || got > before/50 {
		t.Fatalf("one frame after a second of silence: observed %.0f b/s, want the open window averaged over the second (was %.0f)", got, before)
	}
	if len(c.arms) != 0 {
		t.Fatalf("measuring arrivals armed timers %v, want none", c.arms)
	}
}

// The per-packet bookkeeping off the protocol's critical path stays free
// of allocations: finding a known peer's connection, sharing the budget
// out after an ack, the deadline alarm with nothing due or stale, the
// arrival accounting that measures the peer's rate, an acknowledgement
// from owed to retired, riding or alone, sealed on the way, and a NACK
// from arrival to the retransmission it owes.
func TestPerPacketBookkeepingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race")
	}
	streams := []StreamSpec{
		{ID: 9, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e5},
		{ID: 3, Class: core.ClassLossRecovery, Priority: core.PrioNoDiscard, Rate: 1e6},
		{ID: 5, Class: core.ClassFullBestEffort, Priority: core.PrioLowest, Rate: 5e6},
	}
	m, err := ListenMuxVia(&fuzzPC{}, func(*net.UDPAddr) Config { return Config{Streams: streams} })
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	peer := &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 5000}
	c := m.connFor(muxKey{peer: PeerKey(peer)}, peer)
	if c == nil {
		t.Fatal("no conn for a new peer")
	}
	again := &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3).To4(), Port: 5000} // same peer, other spelling
	if allocs := testing.AllocsPerRun(200, func() {
		if m.connFor(keyOf(nil, again), again) != c {
			t.Fatal("known peer routed to another conn")
		}
	}); allocs != 0 {
		t.Errorf("Mux.connFor on a hit: %.2f allocs/op, want 0", allocs)
	}

	for i, want := range []uint16{3, 5, 9} {
		if got := c.core.streams[i].spec.ID; got != want {
			t.Fatalf("streams[%d] = stream %d, want %d (id order)", i, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		c.mu.Lock()
		c.core.reallocate()
		c.mu.Unlock()
	}); allocs != 0 {
		t.Errorf("reallocate: %.2f allocs/op, want 0", allocs)
	}

	// Frames in flight, none of them stale yet.
	for i := 0; i < 8; i++ {
		if _, err := c.Send(3, []byte("in flight")); err != nil {
			t.Fatal(err)
		}
	}
	for c.QueuedFrames() > 0 { // let the pacer finish: only the sweep is left
		time.Sleep(time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		c.mu.Lock()
		c.core.sweepAt = vclock.Deadline{At: c.clock.Now()} // every run takes the sweep branch
		c.mu.Unlock()
		c.onDeadline()
	}); allocs != 0 {
		t.Errorf("the alarm's sweep with nothing stale: %.2f allocs/op, want 0", allocs)
	}
	if got := c.Stats(3).Retx; got != 0 {
		t.Errorf("sweep retransmitted %d fresh frames", got)
	}

	// What is left runs on bare cores, on a synthetic now.
	now := time.Unix(1_000_000, 0)
	var arr connCore
	if err := arr.init(Config{}, now, 0, nil); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		now = now.Add(3 * time.Millisecond) // every fourth arrival closes a window
		arr.observeArrival(700, now)
	}); allocs != 0 {
		t.Errorf("observeArrival: %.2f allocs/op, want 0", allocs)
	}
	if got, want := arr.ctrl.PeerRate(), 700*8/0.003; got < want*0.99 || got > want*1.01 {
		t.Errorf("observed peer rate %.0f b/s, want %.0f", got, want)
	}

	// An acknowledgement's whole life on a keyed core that may hold acks: a
	// request arrives and its ack is owed (the deadline is set once), the
	// response takes the block along, sealed with it, and the block that
	// comes back retires the response from the send window. What the
	// core owes alone is polled as its driver would.
	keyed := func() *connCore {
		k := new(connCore)
		if err := k.init(Config{Streams: ackStreams, StartBudget: 1e9, Key: benchKey}, now, 0, nil); err != nil {
			t.Fatal(err)
		}
		return k
	}
	var block []byte
	out := make([]byte, 0, maxFrameLen)
	transmit := func(k *connCore) (frames int) {
		for _, _, ok := k.pollControl(out[:0]); ok; _, _, ok = k.pollControl(out[:0]) {
			frames++
		}
		if k.takeDrain() {
			for _, _, ok := k.poll(now, out[:0]); ok; _, _, ok = k.poll(now, out[:0]) {
				frames++
			}
		}
		return frames
	}
	rr := keyed()
	now = now.Add(20 * time.Millisecond)
	request, seq := make([]byte, 600), int64(0)
	exchange := func() {
		rr.onDatagram(now, &Header{Type: TypeData, Stream: 2, Class: uint8(core.ClassCritical), Seq: seq, SendMicro: 1}, request, wireLenSealed(len(request)), 0)
		transmit(rr)
		if ok, err := rr.send(now, 1, request[:64], 0, 0); err != nil || !ok {
			t.Fatal("send refused", err)
		}
		if transmit(rr) != 1 {
			t.Fatal("the response did not leave")
		}
		echo := uint64(now.Sub(rr.epoch).Microseconds()) - 10_000
		block = AppendAckBlock(block[:0], echo, 0, []AckRange{{Stream: 1, First: 0, Run: uint16(min(seq+1, recvWindow))}})
		rr.onDatagram(now, &Header{Type: TypeAck, Acks: block}, nil, HeaderLen+len(block), 0)
		seq++
		now = now.Add(20 * time.Microsecond)
	}
	for i := 0; i < 64; i++ {
		exchange()
	}
	if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 {
		t.Errorf("owe, ride, retire: %.2f allocs/op, want 0", allocs)
	}
	if sent, rode := rr.acksSent, rr.acksPiggybacked; sent != 1 || rode != seq-1 || rr.stream(1).window.len() != 0 {
		t.Errorf("%d pure acks and %d ridden blocks over %d exchanges with %d frames outstanding; want 1 (before the first RTT sample), %d, 0",
			sent, rode, seq, rr.stream(1).window.len(), seq-1)
	}

	// The pure ack, as the receiver of a one-way flow owes and seals it per frame.
	ow := keyed()
	seq = 0
	oneWay := func() {
		ow.onDatagram(now, &Header{Type: TypeData, Stream: 2, Class: uint8(core.ClassCritical), Seq: seq, SendMicro: 1}, request, wireLenSealed(len(request)), 0)
		if transmit(ow) != 1 {
			t.Fatal("no pure ack")
		}
		seq++
	}
	for i := 0; i < 64; i++ {
		oneWay()
	}
	if allocs := testing.AllocsPerRun(200, oneWay); allocs != 0 {
		t.Errorf("pure ack: %.2f allocs/op, want 0", allocs)
	}
	if sent, rode := ow.acksSent, ow.acksPiggybacked; sent != seq || rode != 0 {
		t.Errorf("%d pure acks and %d ridden blocks for %d one-way frames, want one pure ack each", sent, rode, seq)
	}

	// A NACK read in place: a frame in flight that the peer names missing is
	// declared lost, sent again, and retired by the ack that follows.
	nk := keyed()
	seq = 0
	missing, nack := make([]int64, 1), make([]byte, 0, 16)
	nacked := func() {
		if ok, err := nk.send(now, 1, request[:64], 0, 0); err != nil || !ok {
			t.Fatal("send refused", err)
		}
		if transmit(nk) != 1 {
			t.Fatal("the frame did not leave")
		}
		now = now.Add(20 * time.Millisecond) // past the loss guard (SRTT, 10 ms)
		missing[0] = seq
		nack = AppendNackPayload(nack[:0], missing)
		nk.onDatagram(now, &Header{Type: TypeNack, Stream: 1}, nack, HeaderLen+len(nack), 0)
		if transmit(nk) != 1 {
			t.Fatal("the NACKed frame was not sent again")
		}
		echo := uint64(now.Sub(nk.epoch).Microseconds()) - 10_000
		block = AppendAckBlock(block[:0], echo, 0, []AckRange{{Stream: 1, First: seq, Run: 1}})
		nk.onDatagram(now, &Header{Type: TypeAck, Acks: block}, nil, HeaderLen+len(block), 0)
		seq++
		now = now.Add(20 * time.Microsecond) // past the pacer's gap
	}
	for i := 0; i < 64; i++ {
		nacked()
	}
	if allocs := testing.AllocsPerRun(200, nacked); allocs != 0 {
		t.Errorf("NACK, resend, retire: %.2f allocs/op, want 0", allocs)
	}
	if st := nk.stream(1); st.retx != seq || nk.lostFrames != seq || st.window.len() != 0 {
		t.Errorf("%d retransmissions and %d declared lost over %d NACKed frames with %d in the window; want %d, %d, 0",
			st.retx, nk.lostFrames, seq, st.window.len(), seq, seq)
	}

	// Two paths: a reliable frame sent, acknowledged and probed on a
	// multipath client, and heard on the server that learns its paths, each
	// datagram delivered from the path's address; sealed both ways.
	cli, srv := keyed(), keyed()
	if cli.paths, err = newClientPaths([]PathConf{{Name: "wifi"}, {Name: "lte"}}, PathOptions{Session: 5}); err != nil {
		t.Fatal(err)
	}
	cli.rtt = &cli.pathRTT
	cli.start(now)
	addrs := []*net.UDPAddr{pathAddr(0), pathAddr(1)}
	in := make([]byte, 0, maxFrameLen)
	var deliver func(to *connCore, frame []byte)
	deliver = func(to *connCore, frame []byte) {
		hdr, payload, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if payload, err = to.sealer.openInPlace(hdr, payload); err != nil {
			t.Fatal(err)
		}
		if to.onPath(now, &hdr, payload, addrs[hdr.Path]) {
			to.onDatagram(now, &hdr, payload, len(frame), 0)
		}
		for f, _, ok := to.pollControl(in[:0]); ok; f, _, ok = to.pollControl(in[:0]) {
			if to == cli {
				deliver(srv, f)
			} else {
				deliver(cli, f)
			}
		}
	}
	twoPaths := func() {
		now = now.Add(probeInterval)
		if ok, err := cli.send(now, 1, request[:64], 0, 0); err != nil || !ok {
			t.Fatal("send refused", err)
		}
		cli.takeDrain()
		for f, _, ok := cli.poll(now, out[:0]); ok; f, _, ok = cli.poll(now, out[:0]) {
			deliver(srv, f)
		}
		cli.probePaths(now, vclock.Deadline{At: now})
		for f, _, ok := cli.pollControl(out[:0]); ok; f, _, ok = cli.pollControl(out[:0]) {
			deliver(srv, f)
		}
	}
	for i := 0; i < 64; i++ {
		twoPaths()
	}
	if allocs := testing.AllocsPerRun(200, twoPaths); allocs != 0 {
		t.Errorf("a frame and a probe round over two paths: %.2f allocs/op, want 0", allocs)
	}
	for i, p := range cli.paths.paths {
		if p.state != PathUp || p.pending != 0 || p.sentFrames < 264 || len(srv.paths.paths) != 2 || srv.paths.paths[i].addr != addrs[i] {
			t.Errorf("path %s: %s, %d probes unanswered, %d datagrams sent; the server knows %d paths",
				p.name, p.state, p.pending, p.sentFrames, len(srv.paths.paths))
		}
	}
	if held := cli.stream(1).window.len(); held != 0 {
		t.Errorf("%d frames left in the send window", held)
	}
}
