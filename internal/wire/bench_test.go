package wire

import (
	"net"
	"testing"

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
