package obs

// The flight recorder is the stack's black box: a fixed-size, allocation-
// flat ring of compact binary events fed by the wire datapath, the adapt
// controller, the rpc client and the overload gate through nil-safe hooks
// that cost ~1 ns when no recorder is installed. In steady state it only
// overwrites its own ring; when something goes wrong — a traced call blows
// the 75 ms budget, a session resets, a path dies, or the SLO engine
// detects hit-rate erosion — Freeze copies the last Window worth of events
// into an immutable Snapshot that can be dumped as JSON over HTTP,
// serialized to a compact binary form, or rendered as a text timeline into
// a marsim scenario trace. All timestamps are durations since the
// recorder's epoch on its injected clock, so a recorder on virtual time
// produces byte-identical snapshots for the same seed.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marnet/internal/vclock"
)

// EventKind discriminates flight-recorder events. The A/B/C payload
// fields are kind-specific; the conventions are documented per kind and
// rendered by Snapshot.Timeline.
type EventKind uint8

// Event kinds. The zero kind is invalid (it marks empty ring slots).
const (
	// EvFrameSend: first transmission of a wire frame.
	// A=stream, B=seq (low 32 bits), C=wire bytes.
	EvFrameSend EventKind = iota + 1
	// EvFrameRetransmit: a reliable frame went out again.
	// Flag=attempt (retx count), A=stream, B=seq, C=wire bytes.
	EvFrameRetransmit
	// EvFrameAck: the peer acknowledged a frame.
	// A=stream, B=seq, C=sampled RTT in microseconds.
	EvFrameAck
	// EvFrameLost: the loss detector declared a frame lost.
	// Flag=retx count so far, A=stream, B=seq.
	EvFrameLost
	// EvAdaptMove: the degradation controller switched payload mode.
	// Flag=1 when the move was an upgrade probe, A=from<<8|to,
	// B=controller tick, C=miss-EWMA in ppm.
	EvAdaptMove
	// EvRetxSwitch: the ARQ/FEC affordability switch flipped.
	// Flag=1 for ARQ (retransmit on), 0 for FEC, C=SRTT in microseconds.
	EvRetxSwitch
	// EvPathState: a path of a multipath conn changed state.
	// Flag=new state, A=path index, C=path SRTT in microseconds.
	EvPathState
	// EvOverloadVerdict: the admission gate refused a request.
	// Flag=verdict, A=method, C=queue delay in microseconds.
	EvOverloadVerdict
	// EvBudgetSplit: one traced call's budget attribution landed.
	// Flag=1 when the budget was blown, A=dominant stage index
	// (StageIndex), B=total in microseconds, C=dominant stage's share in
	// microseconds.
	EvBudgetSplit
	// EvSessionReset: a dialed conn re-bound to a fresh transport at a
	// silence verdict. B=reconnect ordinal.
	EvSessionReset
	// EvSLOTrigger: the SLO engine's multi-window burn-rate alert fired.
	// B=fast burn ×1000, C=slow burn ×1000.
	EvSLOTrigger
	// EvDgramTx: a simulated datagram left its endpoint (marsim's trace).
	// B=payload bytes, C=source<<32|destination, as trace name ids.
	EvDgramTx
	// EvDgramRx: a simulated datagram reached its endpoint's receiver.
	// Fields as EvDgramTx.
	EvDgramRx
	// EvDgramDrop: a simulated datagram arrived at a closed endpoint.
	// Fields as EvDgramTx.
	EvDgramDrop
	// EvDgramSink: a simulated datagram had no endpoint to route to.
	// Fields as EvDgramTx.
	EvDgramSink
	// EvAppLog: an application log line in marsim's trace. B=text length,
	// C=text offset in the trace's text arena.
	EvAppLog

	evKindEnd // sentinel: first invalid kind
)

var evKindNames = [...]string{
	EvFrameSend:       "frame_send",
	EvFrameRetransmit: "frame_retransmit",
	EvFrameAck:        "frame_ack",
	EvFrameLost:       "frame_lost",
	EvAdaptMove:       "adapt_move",
	EvRetxSwitch:      "retx_switch",
	EvPathState:       "path_state",
	EvOverloadVerdict: "overload_verdict",
	EvBudgetSplit:     "budget_split",
	EvSessionReset:    "session_reset",
	EvSLOTrigger:      "slo_trigger",
	EvDgramTx:         "dgram_tx",
	EvDgramRx:         "dgram_rx",
	EvDgramDrop:       "dgram_drop",
	EvDgramSink:       "dgram_sink",
	EvAppLog:          "app_log",
}

// String names the kind for timelines and JSON dumps.
func (k EventKind) String() string {
	if int(k) < len(evKindNames) && evKindNames[k] != "" {
		return evKindNames[k]
	}
	return fmt.Sprintf("kind_%d", uint8(k))
}

// Event is one recorded moment: a timestamp relative to the recorder's
// epoch plus a kind and three integer payload fields whose meaning is
// fixed per kind. The struct lives by value in the ring, so recording
// never allocates; it is padded to 32 bytes so ring slots never straddle
// cache lines and the store's next-slot prefetch always warms exactly
// the line the next event lands in.
type Event struct {
	At   time.Duration `json:"t_ns"`
	Kind EventKind     `json:"-"`
	Flag uint8         `json:"flag"`
	A    uint16        `json:"a"`
	B    uint32        `json:"b"`
	C    uint64        `json:"c"`
	_    [8]byte
}

// eventJSON is the export shape: the kind goes out by name.
type eventJSON struct {
	At   int64  `json:"t_ns"`
	Kind string `json:"kind"`
	Flag uint8  `json:"flag"`
	A    uint16 `json:"a"`
	B    uint32 `json:"b"`
	C    uint64 `json:"c"`
}

// MarshalJSON renders the event with its kind spelled out.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{At: int64(e.At), Kind: e.Kind.String(), Flag: e.Flag, A: e.A, B: e.B, C: e.C}
	return []byte(fmt.Sprintf(`{"t_ns":%d,"kind":%q,"flag":%d,"a":%d,"b":%d,"c":%d}`,
		j.At, j.Kind, j.Flag, j.A, j.B, j.C)), nil
}

// line renders the event as one timeline row.
func (e Event) line() string {
	return fmt.Sprintf("+%dus %s flag=%d a=%d b=%d c=%d",
		e.At.Microseconds(), e.Kind, e.Flag, e.A, e.B, e.C)
}

// RecorderConfig assembles a FlightRecorder.
type RecorderConfig struct {
	// Session labels every snapshot (e.g. the session or endpoint name).
	Session string
	// Capacity is the event ring size (default DefaultRecorderCapacity).
	Capacity int
	// Window is how far back Freeze looks (default DefaultFreezeWindow).
	Window time.Duration
	// Cooldown is the minimum spacing between snapshots, so a storm of
	// triggers yields a bounded series of snapshots instead of thousands
	// of near-duplicates (default Window/2).
	Cooldown time.Duration
	// MaxSnapshots bounds the retained frozen snapshots; the oldest is
	// dropped first (default DefaultMaxSnapshots).
	MaxSnapshots int
	// Clock supplies event timestamps (default the system clock; marsim
	// injects its virtual clock so snapshots are deterministic).
	Clock vclock.Clock
	// OnFreeze observes every snapshot the moment it is taken, without
	// recorder locks held — the hook marsim uses to write the timeline
	// into the scenario trace.
	OnFreeze func(*Snapshot)
}

// Recorder defaults. The default capacity keeps the ring at 64 KB —
// L2-resident on anything modern — so steady-state recording streams
// through cache instead of DRAM; 2048 events still covers the freeze
// window at ~1k events/s, well above a session's steady rate.
const (
	DefaultRecorderCapacity = 2048
	DefaultFreezeWindow     = 2 * time.Second
	DefaultMaxSnapshots     = 8
)

// FlightRecorder is the per-session black box. A nil *FlightRecorder is
// valid and permanently disabled: every method is nil-safe, so
// instrumented code carries no conditionals and pays only a nil check
// (~1 ns) when no recorder is installed.
type FlightRecorder struct {
	// Hot-path fields first: RecordAt touches enabled, epoch, mu, ring,
	// next, wrapped and seq on every event, and keeping them in the
	// struct's leading cache lines (rather than after the ~100-byte cfg)
	// saves a line miss per record on instrumented fast paths.
	mu      sync.Mutex
	next    int
	seq     uint64 // events ever recorded
	ring    []Event
	wrapped bool
	enabled atomic.Bool
	epoch   time.Time

	cfg        RecorderConfig
	clock      vclock.Clock
	frozeOnce  bool
	lastFreeze time.Duration
	snaps      []*Snapshot
}

// NewFlightRecorder builds an enabled recorder. The ring is allocated
// up front; recording never allocates afterwards.
func NewFlightRecorder(cfg RecorderConfig) *FlightRecorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultRecorderCapacity
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultFreezeWindow
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = cfg.Window / 2
	}
	if cfg.MaxSnapshots <= 0 {
		cfg.MaxSnapshots = DefaultMaxSnapshots
	}
	clock := vclock.OrSystem(cfg.Clock)
	r := &FlightRecorder{
		cfg:   cfg,
		clock: clock,
		epoch: clock.Now(),
		ring:  make([]Event, cfg.Capacity),
	}
	r.enabled.Store(true)
	return r
}

// Record stamps the event with the recorder's clock and stores it. The
// hot path (wire pacing) prefers RecordAt with the time it already holds,
// saving the clock read. Record and RecordAt are only the nil/enabled
// check, small enough to inline (79 and 80 of the compiler's budget of
// 80, so `go build -gcflags=-m ./internal/obs` after any change to them),
// and an uninstrumented caller pays no call; the stamp and the store are
// outlined in recordSince / recordAt.
func (r *FlightRecorder) Record(kind EventKind, flag uint8, a uint16, b uint32, c uint64) {
	if r != nil && r.enabled.Load() {
		r.recordSince(kind, flag, a, b, c)
	}
}

// RecordAt stores the event stamped with a caller-supplied instant from
// the same clock the recorder runs on — the zero-extra-clock-read hook
// for paths that already hold "now".
func (r *FlightRecorder) RecordAt(at time.Time, kind EventKind, flag uint8, a uint16, b uint32, c uint64) {
	if r != nil && r.enabled.Load() {
		r.recordAt(at, kind, flag, a, b, c)
	}
}

func (r *FlightRecorder) recordSince(kind EventKind, flag uint8, a uint16, b uint32, c uint64) {
	r.store(r.clock.Since(r.epoch), kind, flag, a, b, c)
}

func (r *FlightRecorder) recordAt(at time.Time, kind EventKind, flag uint8, a uint16, b uint32, c uint64) {
	r.store(at.Sub(r.epoch), kind, flag, a, b, c)
}

func (r *FlightRecorder) store(at time.Duration, kind EventKind, flag uint8, a uint16, b uint32, c uint64) {
	r.mu.Lock()
	r.ring[r.next] = Event{At: at, Kind: kind, Flag: flag, A: a, B: b, C: c}
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
	if len(r.ring) > 1 {
		// Zero the slot the NEXT event will land in while its cache line
		// is cheap to own. On instrumented fast paths events arrive
		// microseconds apart, long enough for a cold ring line to fall
		// out of cache between stores; this store-prefetch keeps the next
		// line warm and roughly halves the in-situ cost of a record. It
		// costs one overwritten slot of history once the ring has
		// wrapped (the oldest event), which readers skip as an empty
		// slot.
		r.ring[r.next] = Event{}
	}
	r.seq++
	r.mu.Unlock()
}

// Recorded reports how many events were ever recorded (including those
// the ring has since overwritten).
func (r *FlightRecorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// eventsLocked copies ring events with At >= since, oldest first. Zero-
// kind slots are empty (the store-prefetched next slot) and skipped.
func (r *FlightRecorder) eventsLocked(since time.Duration) []Event {
	n, start := r.next, 0
	if r.wrapped {
		n, start = len(r.ring), r.next
	}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		e := r.ring[(start+i)%len(r.ring)]
		if e.Kind != 0 && e.At >= since {
			out = append(out, e)
		}
	}
	return out
}

// Freeze captures the last Window of events into a snapshot. It returns
// nil when the recorder is disabled, empty, or within the cooldown of the
// previous freeze. The OnFreeze hook
// runs without locks held.
func (r *FlightRecorder) Freeze(reason string) *Snapshot {
	if r == nil || !r.enabled.Load() {
		return nil
	}
	now := r.clock.Since(r.epoch)
	r.mu.Lock()
	if r.seq == 0 {
		r.mu.Unlock()
		return nil
	}
	if r.frozeOnce && now-r.lastFreeze < r.cfg.Cooldown {
		r.mu.Unlock()
		return nil
	}
	since := now - r.cfg.Window
	if since < 0 {
		since = 0
	}
	snap := &Snapshot{
		Session: r.cfg.Session,
		Reason:  reason,
		At:      now,
		Seq:     r.seq,
		Events:  r.eventsLocked(since),
	}
	if r.wrapped {
		snap.Overwritten = r.seq - uint64(len(r.ring))
	}
	r.frozeOnce, r.lastFreeze = true, now
	r.snaps = append(r.snaps, snap)
	if len(r.snaps) > r.cfg.MaxSnapshots {
		evict := len(r.snaps) - r.cfg.MaxSnapshots
		r.snaps = append(r.snaps[:0], r.snaps[evict:]...)
	}
	hook := r.cfg.OnFreeze
	r.mu.Unlock()
	if hook != nil {
		hook(snap)
	}
	return snap
}

// Snapshots returns the retained frozen snapshots, oldest first.
func (r *FlightRecorder) Snapshots() []*Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Snapshot(nil), r.snaps...)
}

// Snapshot is one frozen capture: the events of the trigger's trailing
// window plus enough bookkeeping to know what the ring had lost. All
// fields are immutable after Freeze returns.
type Snapshot struct {
	Session string        `json:"session"`
	Reason  string        `json:"reason"`
	At      time.Duration `json:"t_ns"` // freeze instant, since recorder epoch
	Seq     uint64        `json:"seq"`  // events ever recorded at freeze
	// Overwritten counts events lost to ring wrap before this freeze —
	// nonzero means the window may be incomplete at its old end.
	Overwritten uint64  `json:"overwritten"`
	Events      []Event `json:"events"`
}

// Timeline renders the snapshot as text lines: a header plus one line
// per event. Deterministic for deterministic inputs — marsim writes it
// into scenario traces.
func (s *Snapshot) Timeline() []string {
	if s == nil {
		return nil
	}
	out := make([]string, 0, len(s.Events)+1)
	out = append(out, fmt.Sprintf("snapshot session=%s reason=%s at=+%dus events=%d seq=%d overwritten=%d",
		s.Session, s.Reason, s.At.Microseconds(), len(s.Events), s.Seq, s.Overwritten))
	for _, e := range s.Events {
		out = append(out, "  "+e.line())
	}
	return out
}

// String joins the timeline.
func (s *Snapshot) String() string { return strings.Join(s.Timeline(), "\n") }

// Binary snapshot codec: a compact varint framing for persisting and
// shipping snapshots (and for fuzzing the decoder against hostile input).
//
//	magic "MFR1"
//	uvarint len(session) + bytes, uvarint len(reason) + bytes
//	uvarint at(ns), seq, overwritten, len(events)
//	per event: uvarint t(ns), kind byte, flag byte, uvarint a, b, c
const snapMagic = "MFR1"

// Decode limits: hostile input must not allocate unboundedly.
const (
	maxSnapString = 1 << 10
	maxSnapEvents = 1 << 20
)

// Encode serializes the snapshot.
func (s *Snapshot) Encode() []byte {
	b := make([]byte, 0, 64+24*len(s.Events))
	b = append(b, snapMagic...)
	b = binary.AppendUvarint(b, uint64(len(s.Session)))
	b = append(b, s.Session...)
	b = binary.AppendUvarint(b, uint64(len(s.Reason)))
	b = append(b, s.Reason...)
	b = binary.AppendUvarint(b, uint64(s.At))
	b = binary.AppendUvarint(b, s.Seq)
	b = binary.AppendUvarint(b, s.Overwritten)
	b = binary.AppendUvarint(b, uint64(len(s.Events)))
	for _, e := range s.Events {
		b = binary.AppendUvarint(b, uint64(e.At))
		b = append(b, byte(e.Kind), e.Flag)
		b = binary.AppendUvarint(b, uint64(e.A))
		b = binary.AppendUvarint(b, uint64(e.B))
		b = binary.AppendUvarint(b, e.C)
	}
	return b
}

// Snapshot decode errors.
var (
	ErrSnapMagic     = errors.New("obs: snapshot: bad magic")
	ErrSnapTruncated = errors.New("obs: snapshot: truncated")
	ErrSnapRange     = errors.New("obs: snapshot: field out of range")
)

type snapReader struct {
	b []byte
}

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, ErrSnapTruncated
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *snapReader) str(max int) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(max) {
		return "", ErrSnapRange
	}
	if uint64(len(r.b)) < n {
		return "", ErrSnapTruncated
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

func (r *snapReader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, ErrSnapTruncated
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

// DecodeSnapshot parses an encoded snapshot, rejecting malformed or
// oversized input without panicking (fuzzed).
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < len(snapMagic) || string(b[:len(snapMagic)]) != snapMagic {
		return nil, ErrSnapMagic
	}
	r := snapReader{b: b[len(snapMagic):]}
	var s Snapshot
	var err error
	if s.Session, err = r.str(maxSnapString); err != nil {
		return nil, err
	}
	if s.Reason, err = r.str(maxSnapString); err != nil {
		return nil, err
	}
	at, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if at > uint64(1)<<62 {
		return nil, ErrSnapRange
	}
	s.At = time.Duration(at)
	if s.Seq, err = r.uvarint(); err != nil {
		return nil, err
	}
	if s.Overwritten, err = r.uvarint(); err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSnapEvents {
		return nil, ErrSnapRange
	}
	// Cap the up-front allocation: a tiny input claiming 2^20 events must
	// not reserve 24 MB before the parse fails.
	capHint := int(n)
	if capHint > len(r.b)/5+1 {
		capHint = len(r.b)/5 + 1
	}
	s.Events = make([]Event, 0, capHint)
	for i := uint64(0); i < n; i++ {
		var e Event
		t, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if t > uint64(1)<<62 {
			return nil, ErrSnapRange
		}
		e.At = time.Duration(t)
		k, err := r.byte()
		if err != nil {
			return nil, err
		}
		if k == 0 || EventKind(k) >= evKindEnd {
			return nil, ErrSnapRange
		}
		e.Kind = EventKind(k)
		if e.Flag, err = r.byte(); err != nil {
			return nil, err
		}
		a, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if a > 0xFFFF {
			return nil, ErrSnapRange
		}
		e.A = uint16(a)
		bv, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if bv > 0xFFFFFFFF {
			return nil, ErrSnapRange
		}
		e.B = uint32(bv)
		if e.C, err = r.uvarint(); err != nil {
			return nil, err
		}
		s.Events = append(s.Events, e)
	}
	if len(r.b) != 0 {
		return nil, ErrSnapRange
	}
	return &s, nil
}
