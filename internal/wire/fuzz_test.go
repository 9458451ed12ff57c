package wire

import (
	"bytes"
	"testing"
	"time"
)

// FuzzHeaderDecode throws arbitrary bytes at the frame decoder. Invariants:
// never panic, never return a payload longer than the input, and any frame
// that decodes cleanly must survive a re-encode/re-decode round trip
// unchanged.
func FuzzHeaderDecode(f *testing.F) {
	// Seed with a valid frame of every type, plus known edge cases.
	for _, typ := range []uint8{TypeData, TypeAck, TypeNack, TypePing, TypePong} {
		frame, err := AppendFrame(nil, Header{
			Type: typ, Stream: 7, Class: 2, Prio: 1,
			Seq: 42, SendMicro: 123456,
		}, []byte("payload"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA2, 0x7B}, HeaderLen))
	f.Add(func() []byte { // truncated: header promises more payload than present
		frame, _ := AppendFrame(nil, Header{Type: TypeData}, make([]byte, 100))
		return frame[:HeaderLen+10]
	}())
	// flagTraced frames: every type with trace context, extreme ids, and
	// a flagTraced header truncated inside the trace-id extension.
	for _, typ := range []uint8{TypeData, TypeAck, TypeNack, TypePing, TypePong} {
		frame, err := AppendFrame(nil, Header{
			Type: typ, Stream: 7, Class: 2, Prio: 1,
			Seq: 42, SendMicro: 123456,
			TraceID: 0xDEADBEEFCAFEF00D, SpanID: 0x0123456789ABCDEF,
		}, []byte("traced"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add(func() []byte {
		frame, _ := AppendFrame(nil, Header{Type: TypeData, TraceID: ^uint64(0), SpanID: ^uint64(0)}, nil)
		return frame
	}())
	f.Add(func() []byte { // magic and flagBase|flagTraced, but cut off before the span id
		frame, _ := AppendFrame(nil, Header{Type: TypeAck, TraceID: 1, SpanID: 2}, nil)
		return frame[:HeaderLen+4]
	}())
	// Acknowledgement blocks: one range and eight, traced and not, as a pure
	// ack and riding data; a count of zero; a block cut short.
	for _, n := range []int{1, MaxAckRanges} {
		for _, h := range []Header{
			{Type: TypeAck},
			{Type: TypeData, Stream: 7, Seq: 42, SendMicro: 123456},
			{Type: TypeData, Stream: 7, Seq: 42, TraceID: 0xDEADBEEFCAFEF00D, SpanID: 1},
		} {
			h.Acks = AppendAckBlock(nil, 987654321, 2500*time.Microsecond, testRanges(n))
			frame, err := AppendFrame(nil, h, []byte("acked"))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
			f.Add(frame[:len(frame)-len("acked")-9])
			zero := append([]byte(nil), frame...)
			zero[headerLen(h)-2-len(h.Acks)] = 0
			f.Add(zero)
		}
	}
	// Batch-boundary shapes: the batched I/O path hands the decoder frames
	// cut from mmsg ring buffers, so seed the exact edges — a frame filling
	// MaxPayload to the byte, two frames packed back-to-back (a decoder
	// must take exactly the first and ignore the neighbor), and a maximal
	// frame with one trailing byte shaved (truncated mid-payload).
	f.Add(func() []byte {
		frame, _ := AppendFrame(nil, Header{Type: TypeData, Seq: 1}, bytes.Repeat([]byte{0xEE}, MaxPayload))
		return frame
	}())
	f.Add(func() []byte {
		a, _ := AppendFrame(nil, Header{Type: TypeData, Seq: 2}, []byte("first"))
		return func() []byte {
			b, _ := AppendFrame(a, Header{Type: TypeAck, Seq: 3}, nil)
			return b
		}()
	}())
	f.Add(func() []byte {
		frame, _ := AppendFrame(nil, Header{Type: TypeData, Seq: 4, TraceID: 9, SpanID: 10}, bytes.Repeat([]byte{0xDB}, MaxPayload))
		return frame[:len(frame)-1]
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if int(h.PayloadLen) != len(payload) {
			t.Fatalf("declared payload %d, returned %d", h.PayloadLen, len(payload))
		}
		if len(payload) > len(data) {
			t.Fatalf("payload (%d) longer than input (%d)", len(payload), len(data))
		}
		reenc, err := AppendFrame(nil, h, payload)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		h2, payload2, err := DecodeFrame(reenc)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if !sameHeader(h2, h) || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed the frame:\n %+v %q\n-> %+v %q", h, payload, h2, payload2)
		}
	})
}

// FuzzNackDecode covers the variable-length NACK payload codec with the
// same no-panic + round-trip invariants.
func FuzzNackDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(AppendNackPayload(nil, []int64{1, 2, 3, -9}))
	f.Add(AppendNackPayload(nil, nil))
	f.Add([]byte{0xFF, 0xFF}) // declares 65535 seqs, carries none
	// Clamp boundary: exactly MaxNackEntries round-trips; one more is the
	// first count the decoder must refuse (no conforming encoder emits it).
	f.Add(AppendNackPayload(nil, make([]int64, MaxNackEntries)))
	f.Add(func() []byte {
		p := AppendNackPayload(nil, make([]int64, MaxNackEntries))
		p[0], p[1] = byte(MaxNackEntries+1), byte((MaxNackEntries+1)>>8)
		return p
	}())

	f.Fuzz(func(t *testing.T, data []byte) {
		missing, err := DecodeNackPayload(data)
		if err != nil {
			return
		}
		reenc := AppendNackPayload(nil, missing)
		missing2, err := DecodeNackPayload(reenc)
		if err != nil {
			t.Fatalf("re-encoded NACK failed to decode: %v", err)
		}
		if len(missing2) != len(missing) {
			t.Fatalf("round trip changed count: %d -> %d", len(missing), len(missing2))
		}
		for i := range missing {
			if missing[i] != missing2[i] {
				t.Fatalf("seq %d changed: %d -> %d", i, missing[i], missing2[i])
			}
		}
	})
}
