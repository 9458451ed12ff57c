package wire

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// The recv fast path is pinned at zero allocations per operation, leg by
// leg: in-place AEAD open (pooled AAD scratch) and the demux
// ingest/deliver cycle (pooled delivery buffers). AllocsPerRun is
// meaningless under the race detector (instrumentation allocates), so the
// pins skip there; `make test-race` still runs the same code for safety.

func TestOpenInPlaceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race")
	}
	sl, err := newSealer(benchKey)
	if err != nil {
		t.Fatal(err)
	}
	h := Header{Type: TypeData, Stream: 3, Class: 1, Prio: 2, Seq: 41}
	frame, err := sl.appendSealedFrame(nil, h, bytes.Repeat([]byte{0xC3}, 600))
	if err != nil {
		t.Fatal(err)
	}
	// open destroys the ciphertext in place, so each run restores the
	// frame into a preallocated scratch copy first (copy allocates nothing).
	scratch := make([]byte, len(frame))
	run := func() {
		copy(scratch, frame)
		hdr, payload, err := DecodeFrame(scratch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sl.openInPlace(hdr, payload); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the AAD pool
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("openInPlace: %.2f allocs/op, want 0", allocs)
	}
}

func TestDemuxIngestZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race")
	}
	d := newShardDemux(&fuzzPC{}, 4)
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 30303}
	shard := d.shards[ShardOfAddr(from, 4)]
	pkt := bytes.Repeat([]byte{0x11}, 900)
	run := func() {
		d.ingest(pkt, from, 0)
		select {
		case p := <-shard.ch:
			demuxBufPool.Put(p.buf)
		default:
			t.Fatal("ingest did not enqueue")
		}
	}
	run() // warm the delivery-buffer pool
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("demux ingest/recycle: %.2f allocs/op, want 0", allocs)
	}
}

// A demux delivery callback that retains its slice must observe the 0xDB
// poison after returning: the drain goroutine poisons and recycles the
// buffer the moment the callback is done, so retention is a deterministic
// failure in debug builds rather than silent corruption.
func TestDemuxDeliveryBufferPoisoned(t *testing.T) {
	old := poisonRecvBuffers
	poisonRecvBuffers = true
	defer func() { poisonRecvBuffers = old }()

	d := newShardDemux(&fuzzPC{}, 2)
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 31414}
	var retained []byte // contract violation, on purpose
	seen := make(chan struct{})
	for _, sh := range d.shards {
		sh.Start(func(pkt []byte, _ *net.UDPAddr, _ int) {
			retained = pkt
			close(seen)
		})
	}

	d.ingest([]byte("retained-after-return"), from, 0)
	select {
	case <-seen:
	case <-time.After(2 * time.Second):
		t.Fatal("packet never delivered")
	}
	// Closing every shard joins the drain goroutines (the last Close waits
	// on them), so poisoning has happened-before this point — no polling,
	// no race on the retained slice.
	d.shards[0].Close()
	d.shards[1].Close()
	if len(retained) == 0 {
		t.Fatal("callback never saw the packet")
	}
	for i, b := range retained {
		if b != poisonByte {
			t.Fatalf("retained[%d] = %#x, want poison %#x — retention would go undetected", i, b, poisonByte)
		}
	}
}
