package marsim

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"time"

	"marnet/internal/obs"
	"marnet/internal/simnet"
)

// Trace is the scenario's deterministic event log: one obs.Event record
// per network event (tx, rx, drop, sink) and per application log call,
// each stamped with the virtual time. Records hold packet METADATA only —
// sizes, addresses, timings — never payload bytes: sealed frames carry
// crypto/rand nonces, so payload bytes are the one nondeterministic input
// in an otherwise deterministic run. Two runs of the same scenario with
// the same seed must produce byte-identical traces; that equality is the
// repo's determinism regression.
//
// The log is stored as records, not text. A packet record holds the size
// in B and the source and destination name ids in C's two 32-bit halves;
// an app record holds the length (B) and offset (C) of its Logf text in a
// side arena. The text lines — "<µs, right-aligned in 10> <kind, left-
// aligned in 5> <rest>" — are rendered only when Bytes or Hash asks.
type Trace struct {
	sim    *simnet.Sim
	chunks []*[chunkEvents]obs.Event // the records; fill of them in the last chunk
	fill   int
	text   [][]byte          // Logf text, traceChunk bytes a chunk, a text spilling across ends
	line   []byte            // Logf's formatting buffer, reused
	names  []string          // "ip:port" by name id
	byName map[string]uint32 // ids of the names no endpoint owns
}

// traceChunk is the log's growth step, in bytes, for the records and the
// text arena alike. Chunks never move once written; one slice regrown by
// append copied tens of megabytes per step and kept slack.
const (
	traceChunk  = 1 << 20
	chunkEvents = traceChunk / 32 // obs.Event is 32 bytes
)

// traceKinds is how a line prints each record kind: its head, the kind
// padded to five columns between the spaces around it, and a packet
// line's tail, the size's unit, the kind's note and the newline.
var traceKinds = [...]struct{ head, tail string }{
	obs.EvDgramTx:   {" tx    ", "B\n"},
	obs.EvDgramRx:   {" rx    ", "B\n"},
	obs.EvDgramDrop: {" drop  ", "B endpoint closed\n"},
	obs.EvDgramSink: {" sink  ", "B no route\n"},
	obs.EvAppLog:    {" app   ", ""},
}

// NewTrace creates an empty trace stamped from sim's virtual clock.
func NewTrace(sim *simnet.Sim) *Trace { return &Trace{sim: sim} }

// endpoint gives an endpoint's address its name id. Every endpoint has an
// address of its own, so it needs no lookup.
func (t *Trace) endpoint(addr string) uint32 {
	t.names = append(t.names, addr)
	return uint32(len(t.names) - 1)
}

// intern gives an address no endpoint owns its name id, once per address.
func (t *Trace) intern(addr string) uint32 {
	if id, ok := t.byName[addr]; ok {
		return id
	}
	if t.byName == nil {
		t.byName = make(map[string]uint32)
	}
	id := t.endpoint(addr)
	t.byName[addr] = id
	return id
}

// add appends one record, opening a fresh chunk when the last one is full.
func (t *Trace) add(e obs.Event) {
	if len(t.chunks) == 0 || t.fill == chunkEvents {
		t.chunks = append(t.chunks, new([chunkEvents]obs.Event))
		t.fill = 0
	}
	t.chunks[len(t.chunks)-1][t.fill] = e
	t.fill++
}

// packet appends one network event. It is written per simulated packet,
// so it only stores a record: no formatting, no lookup, and no allocation
// until the log needs another chunk.
func (t *Trace) packet(kind obs.EventKind, src, dst uint32, size int) {
	t.add(obs.Event{At: t.sim.Now(), Kind: kind, B: uint32(size), C: uint64(src)<<32 | uint64(dst)})
}

// Logf records an application-level event (scenario phase changes, call
// outcomes, state transitions) into the trace. The text is formatted now,
// so it reads as the arguments were at the call.
func (t *Trace) Logf(format string, args ...any) {
	t.line = fmt.Appendf(t.line[:0], format, args...)
	off := t.textLen()
	for b := t.line; len(b) > 0; {
		n := len(t.text)
		if n == 0 || len(t.text[n-1]) == traceChunk {
			t.text = append(t.text, make([]byte, 0, traceChunk))
			n++
		}
		c := t.text[n-1]
		k := copy(c[len(c):traceChunk], b)
		t.text[n-1], b = c[:len(c)+k], b[k:]
	}
	t.add(obs.Event{At: t.sim.Now(), Kind: obs.EvAppLog, B: uint32(len(t.line)), C: uint64(off)})
}

// textLen is the arena's length: every chunk but the last is full.
func (t *Trace) textLen() int {
	if len(t.text) == 0 {
		return 0
	}
	return (len(t.text)-1)*traceChunk + len(t.text[len(t.text)-1])
}

// records is chunk i's written part.
func (t *Trace) records(i int) []obs.Event {
	if i == len(t.chunks)-1 {
		return t.chunks[i][:t.fill]
	}
	return t.chunks[i][:]
}

// Events calls yield with every record in log order until it returns false.
func (t *Trace) Events(yield func(obs.Event) bool) {
	for i := range t.chunks {
		for _, e := range t.records(i) {
			if !yield(e) {
				return
			}
		}
	}
}

// Ends names a packet record's source and destination, as "ip:port".
func (t *Trace) Ends(e obs.Event) (src, dst string) {
	return t.names[e.C>>32], t.names[uint32(e.C)]
}

// Bytes renders the full trace as text, one line per record, into one
// buffer sized for it.
func (t *Trace) Bytes() []byte {
	size := 0
	for i := range t.chunks {
		for _, e := range t.records(i) {
			k, us := traceKinds[e.Kind], 10 // right-aligned in ten columns
			if at := uint64(e.At.Microseconds()); at >= 1e10 {
				us = decimalLen(at)
			}
			size += us + len(k.head)
			if e.Kind == obs.EvAppLog {
				size += int(e.B) + len("\n")
				continue
			}
			src, dst := t.Ends(e)
			size += len(src) + len(" -> ") + len(dst) + len(" ") + decimalLen(uint64(e.B)) + len(k.tail)
		}
	}
	return t.render(make([]byte, 0, size), nil)
}

// Hash returns a 64-bit FNV-1a digest of the rendered trace — a compact
// identity for byte-equality checks across runs and in soak logs. The
// lines stream through the hash one at a time; the text is never held
// whole.
func (t *Trace) Hash() uint64 {
	h := fnv.New64a()
	t.render(make([]byte, 0, 256), h)
	return h.Sum64()
}

// render appends every record's line to buf, or, given a writer, renders
// each line into buf alone and hands it to w.
func (t *Trace) render(buf []byte, w io.Writer) []byte {
	for i := range t.chunks {
		for _, e := range t.records(i) {
			if w == nil {
				buf = t.appendLine(buf, e)
				continue
			}
			buf = t.appendLine(buf[:0], e)
			w.Write(buf) //nolint:errcheck // hash.Hash never fails
		}
	}
	return buf
}

// appendLine renders one record: the head, exactly what fmt's "%10d %-5s "
// renders of the virtual µs and the kind, then a packet's
// "src -> dst <size>B<note>" or an app line's text, read from the arena
// chunks it spans, and the newline.
func (t *Trace) appendLine(b []byte, e obs.Event) []byte {
	var num [20]byte
	us := strconv.AppendUint(num[:0], uint64(e.At.Microseconds()), 10)
	if len(us) < 10 {
		b = append(b, "          "[len(us):]...)
	}
	b = append(b, us...)
	k := traceKinds[e.Kind]
	b = append(b, k.head...)
	if e.Kind == obs.EvAppLog {
		for off, n := int(e.C), int(e.B); n > 0; {
			text := t.text[off/traceChunk][off%traceChunk:]
			text = text[:min(n, len(text))]
			b = append(b, text...)
			off, n = off+len(text), n-len(text)
		}
		return append(b, '\n')
	}
	src, dst := t.Ends(e)
	b = append(b, src...)
	b = append(b, " -> "...)
	b = append(b, dst...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(e.B), 10)
	return append(b, k.tail...)
}

// decimalLen is how many digits strconv renders v in.
func decimalLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// stamp formats a virtual duration for exact-timestamp assertions.
func stamp(d time.Duration) string { return fmt.Sprintf("%dus", d.Microseconds()) }
