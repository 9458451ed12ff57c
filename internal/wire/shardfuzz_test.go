package wire

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
)

// fuzzPC is a PacketConn stub for driving the demux ingest boundary by
// hand: Start just records the callback, nothing is ever delivered unless
// the test calls ingest itself.
type fuzzPC struct {
	closed atomic.Bool
}

func (f *fuzzPC) WriteToUDP(b []byte, _ *net.UDPAddr) (int, error) { return len(b), nil }
func (f *fuzzPC) LocalAddr() net.Addr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
}
func (f *fuzzPC) Close() error                                           { f.closed.Store(true); return nil }
func (f *fuzzPC) Start(func(pkt []byte, from *net.UDPAddr, backlog int)) {}

// FuzzShardDemux hammers the two recv-side boundaries a hostile (or GRO-
// coalescing) network can push malformed shapes through: the segment
// splitter that re-expands coalesced datagrams, and the demux ingest that
// copies packets into pooled buffers and queues them by address hash.
// Invariants: segments reassemble exactly to the input, the segment count
// matches the ceiling division, nothing panics feeding segments through
// DecodeFrame, and the demux conserves packets (every ingest accounted as
// queued, dropped-full or dropped-oversize, with queued payloads byte-
// identical to what went in) for every shard count from 1 to 9, taken from
// the peer's port so that non-powers of two are always among the seeds.
func FuzzShardDemux(f *testing.F) {
	sl, err := newSealer(benchKey)
	if err != nil {
		f.Fatal(err)
	}
	frame, err := sl.appendSealedFrame(nil, Header{Type: TypeData, Stream: 1, Class: 1, Prio: 1, Seq: 7}, bytes.Repeat([]byte{0xAB}, 200))
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: one valid frame unsplit, a GRO-style coalescence of four
	// copies, a truncated frame, a short split that leaves a ragged tail,
	// an oversized datagram (> recvBufLen), and degenerate segment sizes.
	f.Add(frame, 0, uint16(40001))
	f.Add(bytes.Repeat(frame, 4), len(frame), uint16(40002))
	f.Add(frame[:10], 3, uint16(40003))
	f.Add([]byte("ragged-tail-payload"), 7, uint16(40004))
	f.Add(bytes.Repeat([]byte{0xDB}, recvBufLen+100), 1200, uint16(40005))
	f.Add([]byte{}, -1, uint16(0))
	f.Add([]byte{0x7B, 0xA2}, 1<<30, uint16(65535))
	for port := uint16(0); port < 64; port++ { // every shard count, seven peers each
		f.Add(frame, 0, port)
	}

	f.Fuzz(func(t *testing.T, data []byte, segSize int, port uint16) {
		from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(port)}

		// --- splitSegments invariants ---
		var segs [][]byte
		total := 0
		const behind = 3 // datagrams after this one in the reader's batch
		var backlogs []int
		n := splitSegments(data, segSize, from, behind, func(pkt []byte, fr *net.UDPAddr, backlog int) {
			if fr != from {
				t.Fatal("splitSegments changed the peer address")
			}
			segs = append(segs, pkt)
			backlogs = append(backlogs, backlog)
			total += len(pkt)
		})
		if n != len(segs) {
			t.Fatalf("splitSegments returned %d, delivered %d", n, len(segs))
		}
		for i, b := range backlogs {
			if want := behind + n - 1 - i; b != want {
				t.Fatalf("segment %d of %d delivered with backlog %d, want %d", i, n, b, want)
			}
		}
		if total != len(data) {
			t.Fatalf("segments sum to %d bytes, input was %d", total, len(data))
		}
		if !bytes.Equal(bytes.Join(segs, nil), data) {
			t.Fatal("segments do not reassemble to the input")
		}
		if segSize > 0 && segSize < len(data) {
			want := (len(data) + segSize - 1) / segSize
			if n != want {
				t.Fatalf("split %d bytes at %d: %d segments, want %d", len(data), segSize, n, want)
			}
			for i, s := range segs {
				if i < len(segs)-1 && len(s) != segSize {
					t.Fatalf("segment %d is %d bytes, want %d", i, len(s), segSize)
				}
				if len(s) == 0 || len(s) > segSize {
					t.Fatalf("segment %d has invalid length %d", i, len(s))
				}
			}
		} else if n != 1 {
			t.Fatalf("degenerate segSize %d must deliver once, got %d", segSize, n)
		}

		// Every segment must be safe to push through the frame decoder.
		for _, s := range segs {
			DecodeFrame(s) //nolint:errcheck // must not panic, errors expected
		}

		// --- demux ingest conservation ---
		shards := 1 + int(port)%9
		d := newShardDemux(&fuzzPC{}, shards)
		d.ingest(data, from, 0)
		st := d.Stats()
		if st.Enqueued+st.DroppedFull+st.DroppedOversize != 1 {
			t.Fatalf("one ingest accounted as %+v", st)
		}
		if len(data) > recvBufLen {
			if st.DroppedOversize != 1 {
				t.Fatalf("oversized datagram (%d B) not dropped: %+v", len(data), st)
			}
		} else if st.Enqueued != 1 {
			t.Fatalf("in-range datagram (%d B) not queued: %+v", len(data), st)
		}
		if st.Enqueued == 1 {
			shard := ShardOfAddr(from, shards)
			select {
			case p := <-d.shards[shard].ch:
				if p.from != from {
					t.Fatal("queued packet carries the wrong peer")
				}
				if !bytes.Equal((*p.buf)[:p.n], data) {
					t.Fatal("queued payload differs from ingested datagram")
				}
				demuxBufPool.Put(p.buf)
			default:
				t.Fatalf("packet queued to a shard other than ShardOfAddr=%d", shard)
			}
		}
	})
}
