package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"marnet/internal/core"
	"marnet/internal/rpc"
)

// callDeadline is the paper's motion-to-photon budget (§III-B): a call
// answered later than this is a miss whatever it returned.
const callDeadline = 75 * time.Millisecond

// method is the one RPC method every workload calls.
const method uint8 = 7

// outcome classifies one finished call.
type outcome uint8

const (
	outOK   outcome = iota // answered and verified byte for byte
	outMiss                // refused, shed or timed out: a deadline miss, not a defect
	outFail                // wrong bytes, or an error no workload should produce
)

// classify turns a call's result into its outcome.
func classify(resp []byte, err error, seq, digest uint64) outcome {
	switch {
	case err == nil:
		if verify(resp, seq, digest) {
			return outOK
		}
		return outFail
	case errors.Is(err, rpc.ErrDeadline), errors.Is(err, rpc.ErrShed),
		errors.Is(err, rpc.ErrServerShed), errors.Is(err, rpc.ErrServerExpired),
		errors.Is(err, rpc.ErrCannotFinish):
		return outMiss
	default:
		return outFail
	}
}

// store is an append-only array of 8-byte records kept outside the Go
// heap (an anonymous mapping). A 12 s run records ~2·10⁵ calls; on the
// heap those records would be as large as the stack's own live data and
// would move GC pacing, allocs_per_call and live_heap_mb — the generator
// would be measuring itself.
type store struct {
	mem []byte
	n   int
}

func newStore(records int) (*store, error) {
	mem, err := syscall.Mmap(-1, 0, records*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("sample store: mmap %d records: %w", records, err)
	}
	return &store{mem: mem}, nil
}

func (s *store) put(v uint64) bool {
	if (s.n+1)*8 > len(s.mem) {
		return false
	}
	binary.LittleEndian.PutUint64(s.mem[s.n*8:], v)
	s.n++
	return true
}

func (s *store) get(i int) uint64 { return binary.LittleEndian.Uint64(s.mem[i*8:]) }

func (s *store) free() {
	if s.mem != nil {
		syscall.Munmap(s.mem) //nolint:errcheck // the mapping is ours and valid
		s.mem = nil
	}
}

// storeRecords bounds one window's records: 60 s (the longest run the
// contract allows) at 60 k calls/s. Untouched pages cost nothing.
const storeRecords = 60 * 60_000

// sample is one finished call as the recorder keeps it.
type sample struct {
	lat   time.Duration // saturates at ~4.29 s
	slice int           // which cut of the window it belongs to
	out   outcome
	top   bool // issued at PrioHighest
}

func (s sample) pack() uint64 {
	lat := s.lat
	if lat < 0 {
		lat = 0
	}
	if lat > 1<<32-1 {
		lat = 1<<32 - 1
	}
	sl := s.slice
	if sl < 0 {
		sl = 0
	}
	if sl > 1<<16-1 {
		sl = 1<<16 - 1
	}
	v := uint64(lat) | uint64(sl)<<32 | uint64(s.out)<<48
	if s.top {
		v |= 1 << 56
	}
	return v
}

func unpack(v uint64) sample {
	return sample{
		lat:   time.Duration(uint32(v)),
		slice: int(uint16(v >> 32)),
		out:   outcome(uint8(v >> 48)),
		top:   v&(1<<56) != 0,
	}
}

// recorder collects one window's observations: finished calls and
// (traced runs) how long each CallAsync took to return.
type recorder struct {
	mu       sync.Mutex
	calls    *store
	issue    *store
	overflow bool
	// whyFailed counts failed calls by cause, so that a failed check says
	// what went wrong and not only how often.
	whyFailed map[string]int
}

func newRecorder() (*recorder, error) {
	r := &recorder{}
	for _, s := range []**store{&r.calls, &r.issue} {
		st, err := newStore(storeRecords)
		if err != nil {
			r.free()
			return nil, err
		}
		*s = st
	}
	return r, nil
}

func (r *recorder) free() {
	for _, s := range []*store{r.calls, r.issue} {
		if s != nil {
			s.free()
		}
	}
}

func (r *recorder) call(s sample) {
	r.mu.Lock()
	if !r.calls.put(s.pack()) {
		r.overflow = true
	}
	r.mu.Unlock()
}

// failure notes why a call counted as failed.
func (r *recorder) failure(resp []byte, err error) {
	why := "response does not verify"
	if err != nil {
		why = err.Error()
	}
	r.mu.Lock()
	if r.whyFailed == nil {
		r.whyFailed = map[string]int{}
	}
	r.whyFailed[why]++
	r.mu.Unlock()
}

func (r *recorder) issued(d time.Duration) {
	r.mu.Lock()
	r.issue.put(uint64(d))
	r.mu.Unlock()
}

// Slot states of a closed-loop call context; see (*callCtx).reissue.
const (
	slotIdle int32 = iota
	slotIssuing
	slotCompleted
)

// callCtx is one reusable in-flight call: its request buffer, what a
// correct response must contain, and the instant its latency counts
// from. The loop owns one per outstanding call for the whole window.
type callCtx struct {
	g      *loadGen
	sess   int
	buf    []byte
	req    []byte
	seq    uint64
	digest uint64
	t0     time.Time
	done   func([]byte, error)

	rng   *rand.Rand   // this slot's payload choices
	state atomic.Int32 // slot state
}

// loadGen drives one window of a real-socket workload.
type loadGen struct {
	spec    *workloadSpec
	clients []*rpc.Client
	pool    *payloadPool
	seed    int64
	spans   bool           // on a rig built for tracing: time every CallAsync
	seq     *atomic.Uint64 // shared across windows so sequence numbers never repeat
	oks     *atomic.Int64  // verified responses, for the served ≥ verified check

	rec        *recorder
	start      time.Time
	sliceWidth time.Duration
	stop       atomic.Bool
	wg         sync.WaitGroup
}

func (g *loadGen) newCtx(sess int) *callCtx {
	return &callCtx{g: g, sess: sess, buf: make([]byte, g.pool.maxLen)}
}

// prepare stamps body k and a fresh sequence number into the context.
func (c *callCtx) prepare(k int) {
	c.seq = c.g.seq.Add(1)
	c.req, c.digest = c.g.pool.stamp(c.buf, k, c.seq)
}

// finish records the call's outcome.
func (c *callCtx) finish(resp []byte, err error) {
	g := c.g
	now := time.Now()
	out := classify(resp, err, c.seq, c.digest)
	switch out {
	case outOK:
		g.oks.Add(1)
	case outFail:
		g.rec.failure(resp, err)
	}
	g.rec.call(sample{lat: now.Sub(c.t0), slice: int(now.Sub(g.start) / g.sliceWidth), out: out, top: true})
}

// callAsync issues the prepared call, timing the issue itself on a rig
// built for tracing: the span around CallAsync returning is the rpc
// layer's share of the client's blocking path.
func (c *callCtx) callAsync() {
	g := c.g
	cl := g.clients[c.sess]
	if !g.spans {
		cl.CallAsync(method, c.req, core.PrioHighest, callDeadline, c.done)
		return
	}
	t := time.Now()
	cl.CallAsync(method, c.req, core.PrioHighest, callDeadline, c.done)
	g.rec.issued(time.Since(t))
}

// runClosed keeps spec.outstanding calls in flight on every session for
// d, then waits for the last ones (bounded by their deadline).
func (g *loadGen) runClosed(d time.Duration) {
	for s := range g.clients {
		for k := 0; k < g.spec.outstanding; k++ {
			c := g.newCtx(s)
			c.rng = rand.New(rand.NewSource(g.seed + int64(s*1000+k)))
			g.wg.Add(1)
			if g.spec.blocking && !g.spans {
				go c.loopBlocking()
				continue
			}
			c.done = func(resp []byte, err error) {
				c.finish(resp, err)
				if c.state.CompareAndSwap(slotIssuing, slotCompleted) {
					return // still inside reissue's CallAsync: its loop goes round again
				}
				c.reissue()
			}
			c.reissue()
		}
	}
	time.Sleep(time.Until(g.start.Add(d)))
	g.stop.Store(true)
	g.wg.Wait()
}

// loopBlocking is the lockstep client: one goroutine per session calling
// the blocking Call, the way an application thread offloads a frame. (A
// rig built for tracing drives lockstep through CallAsync instead, one
// call outstanding, so that the issue can be timed apart from the wait.)
func (c *callCtx) loopBlocking() {
	g := c.g
	defer g.wg.Done()
	for !g.stop.Load() {
		c.prepare(c.rng.Intn(len(g.pool.bodies)))
		c.t0 = time.Now()
		resp, err := g.clients[c.sess].Call(method, c.req, callDeadline)
		c.finish(resp, err)
	}
}

// reissue starts the slot's next call. It is called from the completion
// callback, so the loop needs no goroutine of its own — but CallAsync may
// complete synchronously (a closed or shedding transport), and calling
// reissue from inside reissue would then recurse without bound. The slot
// state turns that case into one more turn of this loop: a callback that
// finds the slot still issuing marks it completed and returns.
func (c *callCtx) reissue() {
	g := c.g
	for {
		if g.stop.Load() {
			g.wg.Done()
			return
		}
		c.prepare(c.rng.Intn(len(g.pool.bodies)))
		c.state.Store(slotIssuing)
		c.t0 = time.Now()
		c.callAsync()
		if c.state.CompareAndSwap(slotIssuing, slotIdle) {
			return // in flight; the callback re-issues
		}
	}
}
