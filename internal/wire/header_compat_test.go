package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"marnet/internal/core"
)

// encodeLegacy hand-rolls the 26-byte layout under any flag byte, so the
// compat tests do not depend on AppendFrame's flag selection.
func encodeLegacy(flags uint8, h Header, payload []byte) []byte {
	buf := make([]byte, HeaderLen+len(payload))
	binary.LittleEndian.PutUint16(buf[0:], Magic)
	buf[2] = flags
	buf[3] = h.Type
	binary.LittleEndian.PutUint16(buf[4:], h.Stream)
	buf[6] = h.Class
	buf[7] = h.Prio
	binary.LittleEndian.PutUint64(buf[8:], uint64(h.Seq))
	binary.LittleEndian.PutUint64(buf[16:], h.SendMicro)
	binary.LittleEndian.PutUint16(buf[24:], uint16(len(payload)))
	copy(buf[HeaderLen:], payload)
	return buf
}

// TestDecodeLegacyVersions: the 26-byte layout decodes under flagBase alone
// (zero trace context), and not under flag byte 2, the second number it
// once had: 2 lacks flagBase, so it is ErrBadFlags.
func TestDecodeLegacyVersions(t *testing.T) {
	want := Header{Type: TypeData, Stream: 9, Class: 1, Prio: 2, Seq: 77, SendMicro: 5555, PayloadLen: 5}
	frame := encodeLegacy(1, want, []byte("hello"))
	h, payload, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("flagBase decode: %v", err)
	}
	if !sameHeader(h, want) {
		t.Fatalf("flagBase header = %+v, want %+v", h, want)
	}
	if h.TraceID != 0 || h.SpanID != 0 {
		t.Fatalf("flagBase frame must carry no trace context: %+v", h)
	}
	if string(payload) != "hello" {
		t.Fatalf("flagBase payload = %q", payload)
	}
	if _, _, err := DecodeFrame(encodeLegacy(2, want, []byte("hello"))); !errors.Is(err, ErrBadFlags) {
		t.Fatalf("flag byte 2 decode: err = %v, want ErrBadFlags", err)
	}
}

// TestUntracedEncodesAsV1: a sender without trace context or owed acks
// sets flagBase alone and emits the bare 26-byte layout, byte for byte.
func TestUntracedEncodesAsV1(t *testing.T) {
	h := Header{Type: TypeAck, Stream: 3, Seq: 12, SendMicro: 900}
	frame, err := AppendFrame(nil, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	legacy := encodeLegacy(flagBase, h, nil)
	if !bytes.Equal(frame, legacy) {
		t.Fatalf("untraced encoding differs from the flagBase layout:\n got %x\nwant %x", frame, legacy)
	}
	if frame[2] != flagBase {
		t.Fatalf("flag byte = %d, want %d", frame[2], flagBase)
	}
}

// TestFrameWithoutAcksEncodesAsBefore: the acknowledgement block is an
// extension a frame without one does not pay for — a traced frame is still
// the 42-byte flagBase|flagTraced layout, byte for byte (the untraced case
// is the test above).
func TestFrameWithoutAcksEncodesAsBefore(t *testing.T) {
	h := Header{Type: TypeData, Stream: 16, Class: 2, Prio: 1, Seq: 1000, SendMicro: 42, TraceID: 0xABCDEF, SpanID: 0x123456}
	payload := []byte("req")
	frame, err := AppendFrame(nil, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeLegacy(flagBase|flagTraced, h, nil)[:HeaderLen-2]
	want = binary.LittleEndian.AppendUint64(want, h.TraceID)
	want = binary.LittleEndian.AppendUint64(want, h.SpanID)
	want = binary.LittleEndian.AppendUint16(want, uint16(len(payload)))
	want = append(want, payload...)
	if !bytes.Equal(frame, want) {
		t.Fatalf("traced frame without a block differs from the flagBase|flagTraced layout:\n got %x\nwant %x", frame, want)
	}
}

func testRanges(n int) []AckRange {
	out := make([]AckRange, n)
	for i := range out {
		out[i] = AckRange{Stream: uint16(3 + i), First: int64(1000*i - 1), Run: uint16(1 + 255*i)}
	}
	return out
}

// TestAckBlockRoundTrip: one range and eight, on traced and untraced frames,
// on a data frame and as a pure ack: the flag byte says 1 | traced·2 |
// acks·4, the header grows by 13 + 12n bytes, the payload length stays the
// last two header bytes and everything comes back as it went in.
func TestAckBlockRoundTrip(t *testing.T) {
	for _, n := range []int{1, MaxAckRanges} {
		for _, traced := range []bool{false, true} {
			for _, typ := range []uint8{TypeData, TypeAck} {
				ranges := testRanges(n)
				h := Header{Type: typ, Stream: 9, Class: 1, Prio: 2, Seq: 77, SendMicro: 5555,
					Acks: AppendAckBlock(nil, 123456789, 2500*time.Microsecond, ranges)}
				wantFlags, wantLen := uint8(flagBase|flagAcks), HeaderLen+13+12*n
				if traced {
					h.TraceID, h.SpanID = 0xDEADBEEF, 0xF00D
					wantFlags, wantLen = wantFlags|flagTraced, wantLen+16
				}
				var payload []byte
				if typ == TypeData {
					payload = []byte("hello")
				}
				frame, err := AppendFrame(nil, h, payload)
				if err != nil {
					t.Fatal(err)
				}
				if frame[2] != wantFlags || len(frame) != wantLen+len(payload) {
					t.Fatalf("n=%d traced=%v: flags %d and %d bytes, want %d and %d", n, traced, frame[2], len(frame), wantFlags, wantLen+len(payload))
				}
				if got := binary.LittleEndian.Uint16(frame[wantLen-2:]); int(got) != len(payload) {
					t.Fatalf("n=%d traced=%v: last two header bytes say %d, want the payload length %d", n, traced, got, len(payload))
				}
				got, gotPayload, err := DecodeFrame(frame)
				if err != nil {
					t.Fatal(err)
				}
				h.PayloadLen = uint16(len(payload))
				if !sameHeader(got, h) || !bytes.Equal(gotPayload, payload) {
					t.Fatalf("n=%d traced=%v: round trip %+v %q, want %+v %q", n, traced, got, gotPayload, h, payload)
				}
				if got.Acks.Len() != n || got.Acks.Echo() != 123456789 || got.Acks.Hold() != 2500*time.Microsecond {
					t.Fatalf("block = %d ranges, echo %d, hold %v", got.Acks.Len(), got.Acks.Echo(), got.Acks.Hold())
				}
				for i, want := range ranges {
					if r := got.Acks.Range(i); r != want {
						t.Fatalf("range %d = %+v, want %+v", i, r, want)
					}
					if !got.Acks.Covers(want.Stream, want.First) || !got.Acks.Covers(want.Stream, want.First+int64(want.Run)-1) ||
						got.Acks.Covers(want.Stream, want.First-1) || got.Acks.Covers(want.Stream, want.First+int64(want.Run)) || got.Acks.Covers(99, want.First) {
						t.Fatalf("Covers disagrees with range %+v", want)
					}
				}
			}
		}
	}
}

// TestAckBlockDecodeRejects: a count of zero, a count above eight and a block
// that runs past the datagram are malformed, and no encoder emits them.
func TestAckBlockDecodeRejects(t *testing.T) {
	h := Header{Type: TypeData, Seq: 1, Acks: AppendAckBlock(nil, 1, 0, testRanges(3))}
	frame, err := AppendFrame(nil, h, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []byte{0, MaxAckRanges + 1, 255} {
		bad := append([]byte(nil), frame...)
		bad[HeaderLen-2] = count
		if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadAcks) {
			t.Errorf("count %d: %v, want ErrBadAcks", count, err)
		}
	}
	for cut := HeaderLen - 2; cut < headerLen(h); cut++ {
		if _, _, err := DecodeFrame(frame[:cut]); err == nil {
			t.Errorf("frame cut inside its block at byte %d decoded", cut)
		}
	}
	grown := append([]byte(nil), frame...)
	grown[HeaderLen-2] = MaxAckRanges // declares more ranges than the datagram holds
	if _, _, err := DecodeFrame(grown); err == nil {
		t.Error("block running past the datagram decoded")
	}
	for _, acks := range []AckBlock{{0}, h.Acks[:len(h.Acks)-1], append(AckBlock{MaxAckRanges + 1}, make([]byte, 12+12*(MaxAckRanges+1))...)} {
		if _, err := AppendFrame(nil, Header{Type: TypeAck, Acks: acks}, nil); !errors.Is(err, ErrBadAcks) {
			t.Errorf("AppendFrame took a malformed %d-byte block: %v", len(acks), err)
		}
	}
}

// TestAckBlockIsAuthenticated: the block travels in the clear but inside
// the AEAD's associated data — flipping any bit of it makes
// the frame undecodable or fails authentication, on both open paths.
func TestAckBlockIsAuthenticated(t *testing.T) {
	s, err := newSealer(benchKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		h := Header{Type: TypeData, Stream: 16, Seq: 5, Acks: AppendAckBlock(nil, 99, time.Millisecond, testRanges(2))}
		if traced {
			h.TraceID, h.SpanID = 111, 222
		}
		frame, err := s.appendSealedFrame(nil, h, []byte("secret"))
		if err != nil {
			t.Fatal(err)
		}
		open := func(frame []byte) error {
			got, sealed, err := DecodeFrame(frame)
			if err != nil {
				return err
			}
			if _, err := s.open(got, sealed); err != nil {
				return err
			}
			plain, err := s.openInPlace(got, sealed)
			if err == nil && string(plain) != "secret" {
				t.Fatalf("opened %q", plain)
			}
			return err
		}
		if err := open(append([]byte(nil), frame...)); err != nil {
			t.Fatalf("untouched frame: %v", err)
		}
		start := headerLen(h) - 2 - len(h.Acks)
		for i := start; i < start+len(h.Acks); i++ {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte(nil), frame...)
				bad[i] ^= 1 << bit
				if open(bad) == nil {
					t.Fatalf("traced=%v: flipping bit %d of block byte %d went unnoticed", traced, bit, i-start)
				}
			}
		}
	}
}

// TestTracedRoundTrip: trace context survives encode/decode and flips the
// flag byte to flagBase|flagTraced with the 42-byte layout.
func TestTracedRoundTrip(t *testing.T) {
	h := Header{
		Type: TypeData, Stream: 16, Class: 2, Prio: 1, Seq: 1000, SendMicro: 42,
		TraceID: 0xABCDEF, SpanID: 0x123456,
	}
	frame, err := AppendFrame(nil, h, []byte("req"))
	if err != nil {
		t.Fatal(err)
	}
	if frame[2] != flagBase|flagTraced {
		t.Fatalf("flag byte = %d, want %d", frame[2], flagBase|flagTraced)
	}
	if len(frame) != HeaderLenTraced+3 {
		t.Fatalf("frame length = %d, want %d", len(frame), HeaderLenTraced+3)
	}
	got, payload, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	h.PayloadLen = 3
	if !sameHeader(got, h) || string(payload) != "req" {
		t.Fatalf("round trip: got %+v %q, want %+v", got, payload, h)
	}
}

// TestTracedSealedRoundTrip: the AAD construction must cover the traced
// header (including trace ids), and tampering with a trace id must fail
// authentication.
func TestTracedSealedRoundTrip(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 16)
	s, err := newSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	h := Header{Type: TypeData, Stream: 16, Seq: 5, TraceID: 111, SpanID: 222}
	sealed, err := s.seal(h, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.open(h, sealed)
	if err != nil || string(plain) != "secret" {
		t.Fatalf("open = %q, %v", plain, err)
	}
	tampered := h
	tampered.TraceID = 999
	if _, err := s.open(tampered, sealed); err == nil {
		t.Fatal("tampered trace id must fail authentication")
	}
	// Trace ids change the AAD length path too: an untraced header over
	// the same payload must not authenticate.
	untraced := h
	untraced.TraceID, untraced.SpanID = 0, 0
	if _, err := s.open(untraced, sealed); err == nil {
		t.Fatal("stripping trace context must fail authentication")
	}
}

// TestTracedConnDelivery: trace context crosses a real socket pair and
// appears on the delivered Message; untraced sends deliver zero ids.
func TestTracedConnDelivery(t *testing.T) {
	specs := []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}}
	got := make(chan Message, 4)
	srv, err := Listen("127.0.0.1:0", Config{
		Streams:   specs,
		OnMessage: func(m Message) { got <- m },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.LocalAddr().String(), Config{Streams: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.SendTraced(1, []byte("traced"), 42, 43); err != nil {
		t.Fatal(err)
	}
	m := <-got
	if m.TraceID != 42 || m.SpanID != 43 {
		t.Fatalf("delivered trace context = %d/%d, want 42/43", m.TraceID, m.SpanID)
	}
	if _, err := cli.Send(1, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	m = <-got
	if m.TraceID != 0 || m.SpanID != 0 {
		t.Fatalf("untraced send delivered trace context: %d/%d", m.TraceID, m.SpanID)
	}
}
