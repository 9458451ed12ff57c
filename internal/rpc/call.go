package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/vclock"
	"marnet/internal/wire"
)

// The client's call engine is an event-driven state machine: every call is
// a callState whose transitions (response arrival, and its one timer's
// fire: hedge, per-attempt timeout or retry backoff) run as clock
// callbacks under Client.mu. No goroutine parks waiting for a call, so the
// identical retry/hedge logic runs on the system clock in production and
// on the simulation's virtual clock in internal/marsim — where a whole
// storm of concurrent calls executes deterministically on one event loop.
// The blocking Call / CallPri API is a thin channel wait over CallAsync.

// completion is what a locked transition hands back when it finished a call,
// by value: the callState is already back on the free list. Zero: in flight.
type completion struct {
	callVars // the finished call's own
	resp     []byte
	err      error
	total    time.Duration
}

// run is the unlocked tail of a finished call (callbacks and budget
// updates must not run under Client.mu); done may issue the next call.
func (c *Client) run(fin completion) {
	if fin.done == nil {
		return
	}
	c.finishCall(fin.span, fin.lastInfo, fin.total, fin.used)
	fin.done(fin.resp, fin.err)
}

// callTimer is a callState's one timer: the callback is bound once and the
// timer re-armed in place (vclock.Rearm) for every instant of every call,
// so arming allocates nothing. Such a callback cannot carry the attempt or
// call it was armed for; the guard lives here, under Client.mu.
// On the system clock a Stop that reports false means the callback's
// goroutine has already started: one fire is in flight that belongs to
// nobody. owed counts those, and fired swallows them first — in this call
// or, once the state has been through the free list, in a later one.
type callTimer struct {
	t     vclock.Timer
	fn    func()
	armed bool
	owed  int
}

func (ct *callTimer) arm(clock vclock.Clock, d time.Duration) {
	ct.t = vclock.Rearm(clock, ct.t, d, ct.fn)
	ct.armed = true
}

func (ct *callTimer) stop() {
	if ct.armed && !ct.t.Stop() {
		ct.owed++
	}
	ct.armed = false
}

// fired reports, from inside the callback, whether this fire is the armed
// one (and disarms) rather than one a failed Stop left in flight.
func (ct *callTimer) fired() bool {
	if ct.owed > 0 {
		ct.owed--
		return false
	}
	live := ct.armed
	ct.armed = false
	return live
}

// callState is one in-flight call: attempt bookkeeping plus the timer that
// drives it, guarded by Client.mu and recycled through Client.free. The
// timer is set for the next instant the call acts at: during an attempt
// the hedge, then the attempt's timeout; between attempts the end of the
// retry backoff.
type callState struct {
	c     *Client // set once; callbacks read it before they hold c.mu
	timer callTimer
	callVars
}

// callVars is the part of a callState that belongs to one call; it is
// zeroed when the state goes back on the free list.
type callVars struct {
	method   uint8
	req      []byte
	prio     core.Priority
	deadline time.Duration
	span     *obs.Span
	done     func([]byte, error)

	started  time.Time
	attempts int // attempt budget
	attempt  int // current attempt index (0-based)
	used     int // attempts actually launched

	// Current attempt state.
	aStart   time.Time
	aTimeout time.Duration
	hedgeDue bool   // during the attempt, the timer is set for the hedge; the timeout follows
	id1, id2 uint64 // primary and hedged request ids (0 = none)
	hstart   time.Time

	lastErr  error
	lastInfo attemptInfo
	// timedOutAfter is the time a timed-out attempt (or the call) had, when
	// lastErr is errTimedOut: the error a caller sees is formatted from it
	// once, by completeLocked, and not for every attempt a retry follows.
	timedOutAfter time.Duration
}

// errTimedOut marks lastErr as a deadline error not yet formatted; it never
// leaves completeLocked.
var errTimedOut = errors.New("rpc: timed out")

// CallAsync issues a call without blocking: done is invoked exactly once —
// possibly synchronously — with the response or error, from an unspecified
// goroutine (on a virtual clock: the simulation loop). Semantics are
// identical to CallPri: deadline split across retries, hedging, typed
// server rejections.
//
// Ownership: req must stay unchanged until done runs (retries and hedges
// resend it); the resp handed to done is the caller's to keep.
func (c *Client) CallAsync(method uint8, req []byte, prio core.Priority, deadline time.Duration, done func([]byte, error)) {
	if len(req)+reqHeader > wire.MaxPayload {
		done(nil, fmt.Errorf("%w: %d bytes", ErrTooBig, len(req)))
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		done(nil, ErrClosed)
		return
	}
	c.stats.Calls++
	var cs *callState
	if n := len(c.free); n > 0 {
		cs = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		cs = &callState{c: c}
		cs.timer.fn = cs.onTimer
	}
	cs.callVars = callVars{method: method, req: req, prio: prio, deadline: deadline,
		attempts: max(c.cfg.Retry.Max, 1), span: c.cfg.Tracer.StartTrace("call"), done: done, started: c.clock.Now()}
	fin := cs.beginAttemptLocked()
	c.mu.Unlock()
	c.run(fin)
}

// beginAttemptLocked launches attempt cs.attempt and sets the timer for its
// hedge, or for its timeout. It returns a completion when the call ends
// synchronously (deadline already burned, launch failure on the last
// attempt, ...).
func (cs *callState) beginAttemptLocked() completion {
	c := cs.c
	remaining := cs.deadline - c.clock.Since(cs.started)
	if remaining <= 0 {
		if cs.lastErr == nil {
			cs.lastErr, cs.timedOutAfter = errTimedOut, cs.deadline
		}
		return cs.completeLocked(nil, cs.lastErr)
	}
	per := remaining / time.Duration(cs.attempts-cs.attempt)
	cs.aStart = c.clock.Now()
	cs.aTimeout = per
	id, err := c.launchLocked(cs, per)
	if err != nil {
		return cs.attemptFailedLocked(err, attemptInfo{})
	}
	cs.id1, cs.id2 = id, 0
	cs.hstart = time.Time{}
	d := c.cfg.Hedge.Delay
	cs.hedgeDue = d > 0 && d < per
	if !cs.hedgeDue {
		d = per
	}
	cs.timer.arm(c.clock, d)
	return completion{}
}

// launchLocked registers a request id for cs and sends the request once,
// stamping the priority and the remaining deadline budget into the header.
func (c *Client) launchLocked(cs *callState, budget time.Duration) (uint64, error) {
	if c.closed {
		return 0, ErrClosed
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = cs

	pb := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(pb)
	buf := (*pb)[:reqHeader+len(cs.req)]
	binary.LittleEndian.PutUint64(buf, id)
	buf[8] = cs.method
	buf[9] = byte(cs.prio)
	us := budget.Microseconds()
	if us < 0 {
		us = 0
	}
	if us > math.MaxUint32 {
		us = math.MaxUint32
	}
	binary.LittleEndian.PutUint32(buf[10:14], uint32(us))
	copy(buf[reqHeader:], cs.req)

	var traceID, spanID uint64
	if cs.span != nil {
		traceID, spanID = uint64(cs.span.Trace), uint64(cs.span.ID)
	}
	ok, err := c.conn.SendTraced(reqStream, buf, traceID, spanID)
	if err != nil || !ok {
		delete(c.pending, id)
		if err != nil {
			return 0, err
		}
		c.stats.ShedCalls++
		return 0, ErrShed
	}
	return id, nil
}

// onResultLocked consumes the response for one of this call's request ids
// (the caller has already removed id from the pending map).
func (cs *callState) onResultLocked(id uint64, res callResult) completion {
	c := cs.c
	info := attemptInfo{queued: res.queued, service: res.service}
	if id == cs.id2 {
		info.rtt = c.clock.Since(cs.hstart)
		info.hedged = true
	} else {
		info.rtt = c.clock.Since(cs.aStart)
	}
	resp, rerr := c.resolveLocked(res)
	cs.endAttemptLocked()
	cs.used = cs.attempt + 1
	cs.lastInfo = info
	if rerr == nil {
		return cs.completeLocked(resp, nil)
	}
	return cs.attemptFailedLocked(rerr, info)
}

// attemptFailedLocked records a failed attempt and either schedules the
// retry or finishes the call.
func (cs *callState) attemptFailedLocked(err error, info attemptInfo) completion {
	c := cs.c
	cs.used = cs.attempt + 1
	cs.lastErr = err
	cs.lastInfo = info
	cs.endAttemptLocked()
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrDraining) {
		// Permanent for this server: no point retrying here — a failover
		// client moves the call to a backup instead.
		return cs.completeLocked(nil, err)
	}
	if cs.attempt >= cs.attempts-1 {
		return cs.completeLocked(nil, err)
	}
	c.stats.Retries++
	b := c.cfg.Retry.Backoff
	if b <= 0 {
		b = 20 * time.Millisecond
	}
	maxB := c.cfg.Retry.MaxBackoff
	if maxB <= 0 {
		maxB = 250 * time.Millisecond
	}
	b <<= cs.attempt
	if b > maxB {
		b = maxB
	}
	sleep := b/2 + time.Duration(c.rng.Int63n(int64(b/2)+1))
	if rem := cs.deadline - c.clock.Since(cs.started); sleep > rem {
		sleep = rem
	}
	cs.attempt++
	if sleep > 0 {
		cs.timer.arm(c.clock, sleep)
		return completion{}
	}
	return cs.beginAttemptLocked()
}

// onTimer acts on whichever of the call's instants is due: between
// attempts the backoff is over and the next attempt starts; during one,
// the hedge duplicates a straggling request (the first response wins) and
// re-sets the timer for the attempt's timeout, or the attempt has
// exhausted its share of the deadline with no response.
func (cs *callState) onTimer() {
	c := cs.c
	c.mu.Lock()
	var fin completion
	if cs.timer.fired() {
		switch {
		case cs.id1 == 0:
			fin = cs.beginAttemptLocked()
		case cs.hedgeDue:
			cs.hedgeDue = false
			left := cs.aTimeout - c.clock.Since(cs.aStart)
			if id, err := c.launchLocked(cs, left); err == nil {
				cs.id2 = id
				cs.hstart = c.clock.Now()
				c.stats.Hedges++
			}
			cs.timer.arm(c.clock, left)
		default:
			cs.timedOutAfter = cs.aTimeout
			fin = cs.attemptFailedLocked(errTimedOut, attemptInfo{})
		}
	}
	c.mu.Unlock()
	c.run(fin)
}

// endAttemptLocked stops the timer and unregisters the attempt's request
// ids; late responses for them are dropped on lookup.
func (cs *callState) endAttemptLocked() {
	c := cs.c
	cs.timer.stop()
	if cs.id1 != 0 {
		delete(c.pending, cs.id1)
		cs.id1 = 0
	}
	if cs.id2 != 0 {
		delete(c.pending, cs.id2)
		cs.id2 = 0
	}
}

// completeLocked finishes the call: it copies the outcome out, scrubs the
// state and puts it on the free list. Nothing may touch cs afterwards.
func (cs *callState) completeLocked(resp []byte, err error) completion {
	c := cs.c
	cs.endAttemptLocked()
	if err == errTimedOut {
		err = fmt.Errorf("%w after %v", ErrDeadline, cs.timedOutAfter)
	}
	if errors.Is(err, ErrDeadline) {
		c.stats.Timeouts++
	}
	fin := completion{cs.callVars, resp, err, c.clock.Since(cs.started)}
	cs.callVars = callVars{}
	c.free = append(c.free, cs)
	return fin
}

// failPendingLocked completes every in-flight call with err (Close path).
// Calls are failed in ascending first-request-id order so teardown is
// deterministic under a virtual clock.
func (c *Client) failPendingLocked(err error) []completion {
	ids := make([]uint64, 0, len(c.pending))
	for id := range c.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var fins []completion
	for _, id := range ids {
		cs, ok := c.pending[id]
		if !ok {
			continue // an earlier id of the same call already completed it
		}
		fins = append(fins, cs.completeLocked(nil, err))
	}
	c.pending = make(map[uint64]*callState)
	return fins
}
