package wire

import (
	"net"
	"testing"
	"time"

	"marnet/internal/core"
)

// The two halves of the frame pipeline as plain Go benchmarks, so
// `make bench-smoke` catches regressions (and compile rot) without the
// socket harness. The end-to-end figures are benchmark/'s wire.* rows.

func BenchmarkEncodeSeal(b *testing.B) {
	sl, err := newSealer(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1000)
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	h := Header{Type: TypeData, Stream: 1, Class: 1, Prio: 1}
	b.SetBytes(int64(wireLenSealed(len(payload))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Seq = int64(i)
		if _, err := sl.appendSealedFrame((*fb)[:0], h, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeOpen(b *testing.B) {
	sl, err := newSealer(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1000)
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	frame, err := sl.appendSealedFrame((*fb)[:0], Header{Type: TypeData, Stream: 1, Class: 1, Prio: 1, Seq: 7}, payload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, p, derr := DecodeFrame(frame)
		if derr != nil {
			b.Fatal(derr)
		}
		if _, oerr := sl.open(h, p); oerr != nil {
			b.Fatal(oerr)
		}
	}
}

// BenchmarkOnData is the receive-side cost of one data frame — decode,
// duplicate check, ack, window bookkeeping, delivery — on a stream whose
// history is as deep as it gets (a full recvWindow of earlier frames).
func BenchmarkOnData(b *testing.B) {
	var sink int
	c, err := ListenVia(&fuzzPC{}, Config{OnMessage: func(m Message) { sink += len(m.Payload) }})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242}
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	payload := make([]byte, 1000)
	h := Header{Type: TypeData, Stream: 1, Class: uint8(core.ClassLossRecovery), Prio: uint8(core.PrioHighest)}
	deliver := func(seq int64) {
		h.Seq = seq
		frame, err := AppendFrame((*fb)[:0], h, payload)
		if err != nil {
			b.Fatal(err)
		}
		c.handleDatagram(frame, from, 0)
	}
	for seq := int64(0); seq < recvWindow; seq++ {
		deliver(seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(recvWindow + int64(i))
	}
	_ = sink
}

// BenchmarkOnAcks is the sender's cost of one acknowledgement on a stream
// with frames in flight: the oldest is acknowledged and a new frame sent,
// so as many stay in flight. On stuck-head the oldest is held back, as a
// critical frame lost again and again is, while the 4096 after it are
// acknowledged one by one; then it is let go and the next is held.
func BenchmarkOnAcks(b *testing.B) {
	for _, tc := range []struct {
		name     string
		inFlight int64
		stuck    bool
	}{
		{"inflight=16", 16, false},
		{"inflight=256", 256, false},
		{"inflight=4096", 4096, false},
		{"stuck-head", 16, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			// Time stands still and the clock granule is an hour: the pacer
			// never holds a frame back, no block carries an RTT sample, and
			// no frame is ever old enough to be declared lost.
			now := time.Unix(1_000_000, 0)
			var c connCore
			if err := c.init(Config{Streams: ackStreams[:1], StartBudget: 1e9}, now, time.Hour, nil); err != nil {
				b.Fatal(err)
			}
			payload, out := make([]byte, 64), make([]byte, 0, maxFrameLen)
			var next int64
			send := func() {
				if ok, err := c.send(now, 1, payload, 0, 0); err != nil || !ok {
					b.Fatal("send refused", err)
				}
				if _, _, ok := c.poll(now, out[:0]); !ok {
					b.Fatal("the frame did not leave")
				}
				next++
			}
			ranges, block := make([]AckRange, 1), make([]byte, 0, maxAckBlockLen)
			ackOne := func(seq int64) {
				ranges[0] = AckRange{Stream: 1, First: seq, Run: 1}
				block = AppendAckBlock(block[:0], 0, 0, ranges)
				c.onAcks(block, now)
			}
			oldest, stuck := int64(0), int64(-1)
			if tc.stuck {
				stuck, oldest = 0, 1
			}
			for next < oldest+tc.inFlight {
				send()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ackOne(oldest)
				if oldest++; tc.stuck && oldest-stuck > 4096 {
					ackOne(stuck)
					stuck, oldest = oldest, oldest+1
				}
				for next < oldest+tc.inFlight {
					send()
				}
			}
			b.StopTimer()
			if c.lostFrames != 0 {
				b.Fatalf("%d frames declared lost: the benchmark acknowledges every frame", c.lostFrames)
			}
		})
	}
}
