package wire

import (
	"bytes"
	"testing"
)

// FuzzPathFrameDecode throws arbitrary bytes at the decoder of multipath
// frames: the path extension and, on a parity frame, the parity payload.
// Invariants: never panic, a Mux keys a decodable frame by the session it
// decodes to, and every frame that decodes cleanly survives a re-encode /
// re-decode round trip unchanged, its parity payload included.
func FuzzPathFrameDecode(f *testing.F) {
	frame := func(h Header, payload []byte) []byte {
		b, err := AppendFrame(nil, h, payload)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	data := Header{Type: TypeData, Stream: 3, Seq: 42, Session: 0xDEADBEEF, Path: 1, Group: 77, Index: 3}
	f.Add(frame(data, []byte("pose")))
	f.Add(frame(Header{Type: TypeData, Session: 1}, nil)) // ungrouped, empty payload
	f.Add(frame(Header{Type: TypePing, SendMicro: 123456, Session: 7}, []byte{0x68, 0x10, 0, 0, uint8(PathDegraded)}))
	f.Add(frame(Header{Type: TypePong, SendMicro: ^uint64(0), Session: 7, Path: 1}, nil))
	f.Add(frame(Header{Type: TypeParity, Session: 99, Path: 1},
		appendParity(nil, parityHeader{Group: 5, Index: 4, K: 4, M: 2, Actual: 3, ShardLen: 64}, bytes.Repeat([]byte{0xAB}, 64))))
	f.Add(frame(Header{Type: TypeParity, Session: 1},
		appendParity(nil, parityHeader{Group: 1, Index: 2, K: 2, M: 14, Actual: 2, ShardLen: 2}, []byte{0, 0})))
	// Edge shapes: empty, a bare prefix, a truncated extension, the path
	// bit on a plain frame, a grouped bit with no group, group-0 parity
	// (reserved), a shard length lying.
	f.Add([]byte{})
	f.Add(frame(data, nil)[:HeaderLen])
	f.Add(frame(data, nil)[:HeaderLen+pathExtLen])
	f.Add(func() []byte {
		b := frame(Header{Type: TypeData, Seq: 1}, []byte("x"))
		b[2] |= flagPath
		return b
	}())
	f.Add(func() []byte {
		b := frame(Header{Type: TypeData, Session: 1}, nil)
		b[HeaderLen-2+pathExtLen-1] |= pathGrouped
		return b
	}())
	f.Add(frame(Header{Type: TypeParity, Session: 1}, appendParity(nil, parityHeader{Group: 0, Index: 4, K: 4, M: 2, ShardLen: 8}, make([]byte, 8))))
	f.Add(frame(Header{Type: TypeParity, Session: 1}, appendParity(nil, parityHeader{Group: 3, Index: 4, K: 4, M: 2, ShardLen: 500}, make([]byte, 8))))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if key := keyOf(data, pathAddr(0)); key.session != h.Session {
			t.Fatalf("a Mux keys session %d, the frame decodes to %d", key.session, h.Session)
		}
		reenc, err := AppendFrame(nil, h, payload)
		if err != nil {
			t.Fatalf("a decoded frame does not re-encode: %v (%+v)", err, h)
		}
		h2, payload2, err := DecodeFrame(reenc)
		if err != nil || !sameHeader(h2, h) || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed the frame:\n %+v %x\n-> %+v %x", h, payload, h2, payload2)
		}
		if h.Type != TypeParity {
			return
		}
		ph, shard, err := parseParity(payload)
		if err != nil {
			return
		}
		if int(ph.ShardLen) != len(shard) || !ph.valid(len(shard)) {
			t.Fatalf("accepted geometry %+v with a %d-byte shard", ph, len(shard))
		}
		if !bytes.Equal(appendParity(nil, ph, shard), payload) {
			t.Fatalf("parity round trip changed bytes:\n%x", payload)
		}
	})
}

// FuzzPathReassembler drives the receive-side FEC state machine with
// adversarial shard sequences: arbitrary group ids, indexes, geometry
// and shard contents must never panic, never produce a frame longer than
// a shard, and keep the repair accounting non-negative.
func FuzzPathReassembler(f *testing.F) {
	// Seeds: a clean repair sequence and a few degenerate shapes, encoded
	// as a flat byte script (op, args...) interpreted below.
	f.Add([]byte{0, 1, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 1, 2, 2, 1, 2, 8, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 2, 1, 4, 9, 9, 9, 9, 1, 2, 2, 2, 1, 2, 6, 1, 1, 1, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{0, 1, 1, 1, 0xFF}, 40)) // hammer one group

	f.Fuzz(func(t *testing.T, script []byte) {
		var rx fecRx
		for len(script) >= 4 {
			op := script[0]
			group := uint32(script[1])
			index := script[2]
			n := int(script[3])
			script = script[4:]
			if n > len(script) {
				n = len(script)
			}
			blob := script[:n]
			script = script[n:]
			var out []byte
			limit := len(blob)
			switch op % 2 {
			case 0:
				out = rx.onData(group, index, blob, nil)
				limit += maxFrameLen
			case 1:
				if n < 2 {
					continue
				}
				hdr := parityHeader{
					Group:    group,
					Index:    index,
					K:        1 + blob[0]%8,
					M:        1 + blob[1]%4,
					Actual:   blob[0] % 9,
					ShardLen: uint16(n),
				}
				out = rx.onParity(hdr, blob, nil)
			}
			for len(out) > 0 {
				m := int(out[0]) | int(out[1])<<8
				if m > limit {
					t.Fatalf("recovered a %d-byte frame from shards of %d", m, limit)
				}
				out = out[3+m:]
			}
		}
		rx.drain()
		if rx.repaired < 0 || rx.unrepaired < 0 {
			t.Fatalf("negative accounting: %d %d", rx.repaired, rx.unrepaired)
		}
	})
}
