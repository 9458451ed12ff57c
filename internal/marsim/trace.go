package marsim

import (
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
	sim   *simnet.Sim
	buf   []byte
	lines int
}

// NewTrace creates an empty trace stamped from sim's virtual clock.
func NewTrace(sim *simnet.Sim) *Trace { return &Trace{sim: sim} }

// head opens a line: "<µs, right-aligned in 10> <kind, left-aligned in 5> ",
// exactly what fmt's "%10d %-5s " renders.
func (t *Trace) head(kind string) {
	var num [20]byte
	us := strconv.AppendInt(num[:0], t.sim.Now().Microseconds(), 10)
	for i := len(us); i < 10; i++ {
		t.buf = append(t.buf, ' ')
	}
	t.buf = append(t.buf, us...)
	t.buf = append(t.buf, ' ')
	t.buf = append(t.buf, kind...)
	for i := len(kind); i < 5; i++ {
		t.buf = append(t.buf, ' ')
	}
	t.buf = append(t.buf, ' ')
}

// packet appends one network event: "<head>src -> dst <size>B<note>". It is
// written per simulated packet, so it formats by hand into the trace buffer
// and allocates only when the buffer grows.
func (t *Trace) packet(kind, src, dst string, size int, note string) {
	t.head(kind)
	t.buf = append(t.buf, src...)
	t.buf = append(t.buf, " -> "...)
	t.buf = append(t.buf, dst...)
	t.buf = append(t.buf, ' ')
	t.buf = strconv.AppendInt(t.buf, int64(size), 10)
	t.buf = append(t.buf, 'B')
	t.buf = append(t.buf, note...)
	t.buf = append(t.buf, '\n')
	t.lines++
}

// Logf records an application-level event (scenario phase changes, call
// outcomes, state transitions) into the trace.
func (t *Trace) Logf(format string, args ...any) {
	t.head("app")
	t.buf = fmt.Appendf(t.buf, format, args...)
	t.buf = append(t.buf, '\n')
	t.lines++
}

// Bytes returns the full trace contents.
func (t *Trace) Bytes() []byte { return t.buf }

// Lines reports how many events were recorded.
func (t *Trace) Lines() int { return t.lines }

// Hash returns a 64-bit FNV-1a digest of the trace — a compact identity
// for byte-equality checks across runs and in soak logs.
func (t *Trace) Hash() uint64 {
	h := fnv.New64a()
	h.Write(t.buf) //nolint:errcheck // hash.Hash never errors
	return h.Sum64()
}

// stamp formats a virtual duration for exact-timestamp assertions.
func stamp(d time.Duration) string { return fmt.Sprintf("%dus", d.Microseconds()) }
