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

// FuzzShardDemux hammers the recv-side boundary a hostile network can
// push malformed shapes through: the demux ingest that copies packets into
// pooled buffers and queues them by address hash. Invariants: nothing
// panics feeding the datagram through DecodeFrame, and the demux conserves
// packets (every ingest accounted as queued, dropped-full or
// dropped-oversize, with queued payloads byte-identical to what went in)
// for every shard count from 1 to 9, taken from the peer's port so that
// non-powers of two are always among the seeds.
func FuzzShardDemux(f *testing.F) {
	sl, err := newSealer(benchKey)
	if err != nil {
		f.Fatal(err)
	}
	frame, err := sl.appendSealedFrame(nil, Header{Type: TypeData, Stream: 1, Class: 1, Prio: 1, Seq: 7}, bytes.Repeat([]byte{0xAB}, 200))
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: one valid frame, four copies back to back, a truncated
	// frame, a ragged payload, an oversized datagram (> recvBufLen), an
	// empty one and a two-byte one.
	f.Add(frame, uint16(40001))
	f.Add(bytes.Repeat(frame, 4), uint16(40002))
	f.Add(frame[:10], uint16(40003))
	f.Add([]byte("ragged-tail-payload"), uint16(40004))
	f.Add(bytes.Repeat([]byte{0xDB}, recvBufLen+100), uint16(40005))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x7B, 0xA2}, uint16(65535))
	for port := uint16(0); port < 64; port++ { // every shard count, seven peers each
		f.Add(frame, port)
	}

	f.Fuzz(func(t *testing.T, data []byte, port uint16) {
		from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(port)}
		DecodeFrame(data) //nolint:errcheck // must not panic, errors expected

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
