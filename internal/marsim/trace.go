package marsim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"marnet/internal/simnet"
)

// Trace is the scenario's deterministic event log: one line per network
// event (tx, rx, drop, sink) and per application log call, each stamped
// with the virtual time in microseconds. Lines record packet METADATA only
// — sizes, addresses, timings — never payload bytes: sealed frames carry
// crypto/rand nonces, so payload bytes are the one nondeterministic input
// in an otherwise deterministic run. Two runs of the same scenario with
// the same seed must produce byte-identical traces; that equality is the
// repo's determinism regression.
type Trace struct {
	sim    *simnet.Sim
	line   []byte   // the line being formatted, reused
	chunks [][]byte // the log: traceChunk bytes each, the last one filling
	lines  int
}

// traceChunk is the log's growth step. Chunks never move once written; one
// slice regrown by append copied tens of megabytes per step and kept slack.
const traceChunk = 1 << 20

// NewTrace creates an empty trace stamped from sim's virtual clock.
func NewTrace(sim *simnet.Sim) *Trace { return &Trace{sim: sim} }

// head opens a line: "<µs, right-aligned in 10> <kind, left-aligned in 5> ",
// exactly what fmt's "%10d %-5s " renders.
func (t *Trace) head(kind string) {
	var num [20]byte
	us := strconv.AppendInt(num[:0], t.sim.Now().Microseconds(), 10)
	b := t.line[:0]
	for i := len(us); i < 10; i++ {
		b = append(b, ' ')
	}
	b = append(b, us...)
	b = append(b, ' ')
	b = append(b, kind...)
	for i := len(kind); i < 5; i++ {
		b = append(b, ' ')
	}
	t.line = append(b, ' ')
}

// end closes the open line and copies it into the log, spilling into a
// fresh chunk wherever the current one is full.
func (t *Trace) end() {
	t.line = append(t.line, '\n')
	for b := t.line; len(b) > 0; {
		n := len(t.chunks)
		if n == 0 || len(t.chunks[n-1]) == traceChunk {
			t.chunks = append(t.chunks, make([]byte, 0, traceChunk))
			n++
		}
		c := t.chunks[n-1]
		k := copy(c[len(c):traceChunk], b)
		t.chunks[n-1], b = c[:len(c)+k], b[k:]
	}
	t.lines++
}

// packet appends one network event: "<head>src -> dst <size>B<note>". It is
// written per simulated packet, so it formats by hand into the reused line
// buffer and allocates only when the log needs another chunk.
func (t *Trace) packet(kind, src, dst string, size int, note string) {
	t.head(kind)
	b := append(t.line, src...)
	b = append(b, " -> "...)
	b = append(b, dst...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(size), 10)
	b = append(b, 'B')
	t.line = append(b, note...)
	t.end()
}

// Logf records an application-level event (scenario phase changes, call
// outcomes, state transitions) into the trace.
func (t *Trace) Logf(format string, args ...any) {
	t.head("app")
	t.line = fmt.Appendf(t.line, format, args...)
	t.end()
}

// Bytes returns a copy of the full trace contents, chunks joined.
func (t *Trace) Bytes() []byte { return bytes.Join(t.chunks, nil) }

// Lines reports how many events were recorded.
func (t *Trace) Lines() int { return t.lines }

// Hash returns a 64-bit FNV-1a digest of the trace — a compact identity
// for byte-equality checks across runs and in soak logs.
func (t *Trace) Hash() uint64 {
	h := fnv.New64a()
	for _, c := range t.chunks {
		h.Write(c) //nolint:errcheck // hash.Hash never errors
	}
	return h.Sum64()
}

// stamp formats a virtual duration for exact-timestamp assertions.
func stamp(d time.Duration) string { return fmt.Sprintf("%dus", d.Microseconds()) }
