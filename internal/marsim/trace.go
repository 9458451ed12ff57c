package marsim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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
// The log is stored as records, not text, and the records as bytes: each
// obs.Event is encoded (see add) into about 7.7 bytes where the struct
// takes 32. A packet record holds the size in B and the source and
// destination name ids in C's two 32-bit halves; an app record holds the
// length (B) and offset (C) of its Logf text in a side arena. The text
// lines — "<µs, right-aligned in 10> <kind, left-aligned in 5> <rest>" —
// are rendered only when Bytes or Hash asks.
type Trace struct {
	sim    *simnet.Sim
	log    [][]byte          // the encoded records, logChunk bytes a chunk; no record spans two
	fill   int               // bytes written in the last chunk, which chunks cuts it to
	last   time.Duration     // the At of the last record, the base of the next one's delta
	text   [][]byte          // Logf text, textChunk bytes a chunk, a text spilling across ends
	line   []byte            // Logf's formatting buffer, reused
	names  []string          // "ip:port" by name id
	byName map[string]uint32 // ids of the names no endpoint owns
}

// The log and the text arena grow by fixed chunks that never move once
// written; one slice regrown by append copied megabytes per step and kept
// slack. A text chunk is small: most runs log a few lines.
const (
	logChunk  = 256 << 10
	textChunk = 64 << 10
)

// A record starts with a head byte: the kind in the low five bits, then
// whether Flag and A are stored, and whether the time runs backwards.
// maxRecord is the longest encoding: the head, a 64-bit time step, Flag,
// A, B and C's two halves, each number a uvarint.
const (
	kindMask  = 1<<5 - 1
	hasFlag   = 1 << 5
	hasA      = 1 << 6
	backwards = 1 << 7
	maxRecord = 1 + binary.MaxVarintLen64 + 1 + binary.MaxVarintLen16 + 3*binary.MaxVarintLen32
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

// Every kind the trace renders fits the head byte.
var _ [kindMask + 1 - len(traceKinds)]struct{}

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

// add appends one record, opening a fresh chunk when the last one has no
// room for the longest. The record is the head byte, the step of At from
// the last record's (its magnitude; the head says which way), Flag and A
// when they are not zero, then B and C's high and low halves, each number
// a uvarint.
func (t *Trace) add(e obs.Event) {
	if e.Kind > kindMask {
		panic(fmt.Sprintf("marsim: trace record kind %d does not fit the head byte", e.Kind))
	}
	n := len(t.log)
	if n == 0 || logChunk-t.fill < maxRecord {
		t.log, t.fill = append(t.chunks(), make([]byte, 0, logChunk)), 0
		n++
	}
	r := t.log[n-1][t.fill : t.fill+maxRecord]
	head, step := byte(e.Kind), uint64(e.At-t.last)
	if e.At < t.last {
		head, step = head|backwards, -step
	}
	i := 1 + binary.PutUvarint(r[1:], step)
	if e.Flag != 0 {
		head |= hasFlag
		r[i] = e.Flag
		i++
	}
	if e.A != 0 {
		head |= hasA
		i += binary.PutUvarint(r[i:], uint64(e.A))
	}
	r[0] = head
	i += binary.PutUvarint(r[i:], uint64(e.B))
	i += binary.PutUvarint(r[i:], e.C>>32)
	i += binary.PutUvarint(r[i:], uint64(uint32(e.C)))
	t.fill += i
	t.last = e.At
}

// chunks is the log, the last chunk cut to the bytes written. add keeps
// the count in fill, not in the chunk's length: a slice stored per record
// would cost a write barrier while the collector runs.
func (t *Trace) chunks() [][]byte {
	if n := len(t.log); n > 0 {
		t.log[n-1] = t.log[n-1][:t.fill]
	}
	return t.log
}

// decode reads the record at c[i:] into e, which holds the record before
// it, and returns the index past it.
func decode(c []byte, i int, e *obs.Event) int {
	head := c[i]
	step, i := uvarint(c, i+1)
	if head&backwards != 0 {
		step = -step
	}
	e.At, e.Kind, e.Flag, e.A = e.At+time.Duration(step), obs.EventKind(head&kindMask), 0, 0
	if head&hasFlag != 0 {
		e.Flag = c[i]
		i++
	}
	var v, hi, lo uint64
	if head&hasA != 0 {
		v, i = uvarint(c, i)
		e.A = uint16(v)
	}
	v, i = uvarint(c, i)
	hi, i = uvarint(c, i)
	lo, i = uvarint(c, i)
	e.B, e.C = uint32(v), hi<<32|lo
	return i
}

// uvarint reads the uvarint add wrote at c[i:] and returns it with the
// index past it.
func uvarint(c []byte, i int) (uint64, int) {
	var v uint64
	for s := 0; ; s += 7 {
		b := c[i]
		i++
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			return v, i
		}
	}
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
		if n == 0 || len(t.text[n-1]) == textChunk {
			t.text = append(t.text, make([]byte, 0, textChunk))
			n++
		}
		c := t.text[n-1]
		k := copy(c[len(c):textChunk], b)
		t.text[n-1], b = c[:len(c)+k], b[k:]
	}
	t.add(obs.Event{At: t.sim.Now(), Kind: obs.EvAppLog, B: uint32(len(t.line)), C: uint64(off)})
}

// textLen is the arena's length: every chunk but the last is full.
func (t *Trace) textLen() int {
	if len(t.text) == 0 {
		return 0
	}
	return (len(t.text)-1)*textChunk + len(t.text[len(t.text)-1])
}

// Events calls yield with every record in log order until it returns false.
func (t *Trace) Events(yield func(obs.Event) bool) {
	var e obs.Event
	for _, c := range t.chunks() {
		for i := 0; i < len(c); {
			if i = decode(c, i, &e); !yield(e) {
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
	var e obs.Event
	for _, c := range t.chunks() {
		for i := 0; i < len(c); {
			i = decode(c, i, &e)
			k := traceKinds[e.Kind]
			size += decimalWidth(uint64(e.At.Microseconds()), 10) + len(k.head)
			if e.Kind == obs.EvAppLog {
				size += int(e.B) + len("\n")
				continue
			}
			src, dst := t.Ends(e)
			size += len(src) + len(" -> ") + len(dst) + len(" ") + decimalWidth(uint64(e.B), 0) + len(k.tail)
		}
	}
	buf := make([]byte, 0, size)
	e = obs.Event{}
	for _, c := range t.chunks() {
		for i := 0; i < len(c); {
			i = decode(c, i, &e)
			buf = t.appendLine(buf, &e)
		}
	}
	return buf
}

// Hash returns a 64-bit FNV-1a digest of the rendered trace — a compact
// identity for byte-equality checks across runs and in soak logs. The
// lines are rendered one at a time into one buffer and folded in; the
// text is never held whole.
func (t *Trace) Hash() uint64 {
	const prime = 1099511628211
	h, line := uint64(14695981039346656037), make([]byte, 0, 256) // FNV-1a's 64-bit offset basis
	var e obs.Event
	for _, c := range t.chunks() {
		for i := 0; i < len(c); {
			i = decode(c, i, &e)
			line = t.appendLine(line[:0], &e)
			for _, b := range line {
				h = (h ^ uint64(b)) * prime
			}
		}
	}
	return h
}

// appendLine renders one record: the head, exactly what fmt's "%10d %-5s "
// renders of the virtual µs and the kind, then a packet's
// "src -> dst <size>B<note>" or an app line's text, read from the arena
// chunks it spans, and the newline.
func (t *Trace) appendLine(b []byte, e *obs.Event) []byte {
	b = appendDecimal(b, uint64(e.At.Microseconds()), 10)
	k := traceKinds[e.Kind]
	b = append(b, k.head...)
	if e.Kind == obs.EvAppLog {
		for off, n := int(e.C), int(e.B); n > 0; {
			text := t.text[off/textChunk][off%textChunk:]
			text = text[:min(n, len(text))]
			b = append(b, text...)
			off, n = off+len(text), n-len(text)
		}
		return append(b, '\n')
	}
	src, dst := t.Ends(*e)
	b = append(b, src...)
	b = append(b, " -> "...)
	b = append(b, dst...)
	b = append(b, ' ')
	b = appendDecimal(b, uint64(e.B), 0)
	return append(b, k.tail...)
}

// digitPairs is "00" to "99", two digits a step of appendDecimal.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendDecimal renders v as fmt's "%*d" does at width: in decimal,
// right-aligned by spaces when it is shorter.
func appendDecimal(b []byte, v uint64, width int) []byte {
	n := decimalWidth(v, width)
	b = slices.Grow(b, n)
	d := b[len(b) : len(b)+n]
	i := n
	for ; v >= 100; v /= 100 {
		r := v % 100 * 2
		i -= 2
		d[i], d[i+1] = digitPairs[r], digitPairs[r+1]
	}
	if v >= 10 {
		i -= 2
		d[i], d[i+1] = digitPairs[v*2], digitPairs[v*2+1]
	} else {
		i--
		d[i] = byte('0' + v)
	}
	for i > 0 {
		i--
		d[i] = ' '
	}
	return b[:len(b)+n]
}

// decimalWidth is how many columns appendDecimal renders v in at width.
func decimalWidth(v uint64, width int) int {
	n := bits.Len64(v) * 1233 >> 12 // log10(2) is about 1233/4096: v has n or n+1 digits
	if v >= pow10[n] {
		n++
	}
	if n < width {
		return width
	}
	if n == 0 {
		return 1
	}
	return n
}

// pow10 is 10^n by n, to 10^19.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// stamp formats a virtual duration for exact-timestamp assertions.
func stamp(d time.Duration) string { return fmt.Sprintf("%dus", d.Microseconds()) }
