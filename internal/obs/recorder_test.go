package obs

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"marnet/internal/vclock"
)

// manualClock is a hand-advanced clock for deterministic recorder and SLO
// tests. Timers are not needed here; AfterFunc panics if used.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(1000, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *manualClock) AfterFunc(time.Duration, func()) vclock.Timer {
	panic("manualClock: AfterFunc not supported")
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestRecorderNilIsSafeAndSilent(t *testing.T) {
	var r *FlightRecorder
	r.Record(EvFrameSend, 0, 1, 2, 3)
	r.RecordAt(time.Now(), EvFrameSend, 0, 1, 2, 3)
	if r.Freeze("why") != nil {
		t.Error("nil recorder froze a snapshot")
	}
	if r.Enabled() || r.Recorded() != 0 || r.Session() != "" ||
		r.Events() != nil || r.Snapshots() != nil {
		t.Error("nil recorder reported live state")
	}
}

func TestRecorderDisabledDropsEvents(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{Session: "s"})
	r.SetEnabled(false)
	r.Record(EvFrameSend, 0, 1, 2, 3)
	if r.Recorded() != 0 {
		t.Fatalf("disabled recorder stored %d events", r.Recorded())
	}
	if r.Freeze("x") != nil {
		t.Fatal("disabled recorder froze")
	}
	r.SetEnabled(true)
	r.Record(EvFrameSend, 0, 1, 2, 3)
	if r.Recorded() != 1 {
		t.Fatalf("re-enabled recorder stored %d events, want 1", r.Recorded())
	}
}

func TestRecorderRingWrapKeepsNewest(t *testing.T) {
	clock := newManualClock()
	const capacity = 8
	r := NewFlightRecorder(RecorderConfig{
		Session: "wrap", Capacity: capacity, Window: time.Hour, Clock: clock,
	})
	const total = 20
	for i := 0; i < total; i++ {
		clock.Advance(time.Millisecond)
		r.Record(EvFrameSend, 0, 0, uint32(i), 0)
	}
	if r.Recorded() != total {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), total)
	}
	evs := r.Events()
	// The store-prefetch zeroes the upcoming slot, so a wrapped ring
	// retains capacity-1 events.
	if len(evs) != capacity-1 {
		t.Fatalf("wrapped ring holds %d events, want %d", len(evs), capacity-1)
	}
	for i, e := range evs {
		want := uint32(total - (capacity - 1) + i)
		if e.B != want {
			t.Errorf("event %d: B = %d, want %d (oldest-first order)", i, e.B, want)
		}
	}
	snap := r.Freeze("wrap-check")
	if snap == nil {
		t.Fatal("Freeze returned nil")
	}
	if snap.Overwritten == 0 {
		t.Error("wrapped snapshot reports no overwritten events")
	}
	if snap.Seq != total {
		t.Errorf("snapshot Seq = %d, want %d", snap.Seq, total)
	}
}

func TestRecorderFreezeWindowFiltersOldEvents(t *testing.T) {
	clock := newManualClock()
	r := NewFlightRecorder(RecorderConfig{
		Session: "win", Capacity: 64, Window: 100 * time.Millisecond, Clock: clock,
	})
	r.Record(EvFrameSend, 0, 0, 1, 0) // at t=0, far outside the window
	clock.Advance(time.Second)
	r.Record(EvFrameAck, 0, 0, 2, 0) // inside the window
	snap := r.Freeze("window")
	if snap == nil {
		t.Fatal("Freeze returned nil")
	}
	if n := len(snap.Events); n != 1 {
		t.Fatalf("window kept %d events, want 1: %v", n, snap.Events)
	}
	if snap.Events[0].Kind != EvFrameAck {
		t.Errorf("window kept %v, want the recent ack", snap.Events[0].Kind)
	}
}

func TestRecorderFreezeCooldownAndEviction(t *testing.T) {
	clock := newManualClock()
	r := NewFlightRecorder(RecorderConfig{
		Session: "cd", Capacity: 64, Window: time.Second,
		Cooldown: 500 * time.Millisecond, MaxSnapshots: 2, Clock: clock,
	})
	r.Record(EvFrameSend, 0, 0, 1, 0)
	if r.Freeze("first") == nil {
		t.Fatal("first freeze suppressed")
	}
	clock.Advance(100 * time.Millisecond)
	if r.Freeze("too-soon") != nil {
		t.Fatal("freeze inside the cooldown was not suppressed")
	}
	for i := 0; i < 3; i++ {
		clock.Advance(time.Second)
		r.Record(EvFrameSend, 0, 0, uint32(i+2), 0)
		if r.Freeze("later") == nil {
			t.Fatalf("freeze %d after cooldown suppressed", i)
		}
	}
	snaps := r.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots, want MaxSnapshots=2", len(snaps))
	}
	if snaps[0].Reason != "later" || snaps[1].Reason != "later" {
		t.Errorf("eviction kept the wrong snapshots: %q, %q", snaps[0].Reason, snaps[1].Reason)
	}
}

func TestRecorderFreezeOnEmptyRing(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{Session: "empty"})
	if r.Freeze("nothing") != nil {
		t.Fatal("froze an empty ring")
	}
}

func TestRecorderOnFreezeHookSeesSnapshot(t *testing.T) {
	var got *Snapshot
	r := NewFlightRecorder(RecorderConfig{
		Session:  "hook",
		OnFreeze: func(s *Snapshot) { got = s },
	})
	r.Record(EvSessionReset, 0, 0, 7, 0)
	snap := r.Freeze("hooked")
	if snap == nil || got != snap {
		t.Fatalf("OnFreeze saw %v, Freeze returned %v", got, snap)
	}
	if got.Reason != "hooked" || got.Session != "hook" {
		t.Errorf("snapshot mislabelled: %+v", got)
	}
}

func TestRecordIsAllocationFree(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{Session: "alloc"})
	at := time.Now()
	var seq uint32
	if n := testing.AllocsPerRun(4096, func() {
		seq++
		r.RecordAt(at, EvFrameSend, 0, 1, seq, 1242)
	}); n != 0 {
		t.Fatalf("RecordAt allocates %.2f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(4096, func() {
		r.Record(EvFrameAck, 0, 1, 1, 1)
	}); n != 0 {
		t.Fatalf("Record allocates %.2f/op, want 0", n)
	}
	var off *FlightRecorder
	if n := testing.AllocsPerRun(4096, func() {
		off.RecordAt(at, EvFrameSend, 0, 1, 1, 1)
	}); n != 0 {
		t.Fatalf("nil RecordAt allocates %.2f/op, want 0", n)
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	clock := newManualClock()
	r := NewFlightRecorder(RecorderConfig{Session: "codec", Window: time.Hour, Clock: clock})
	for i := 0; i < 50; i++ {
		clock.Advance(3 * time.Millisecond)
		r.Record(EventKind(1+i%int(evKindEnd-1)), uint8(i), uint16(i*7), uint32(i*131), uint64(i)*1e6)
	}
	snap := r.Freeze("round-trip")
	if snap == nil {
		t.Fatal("no snapshot")
	}
	enc := snap.Encode()
	dec, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if !bytes.Equal(enc, dec.Encode()) {
		t.Fatal("re-encoded snapshot differs from the original encoding")
	}
	if dec.Session != snap.Session || dec.Reason != snap.Reason ||
		dec.At != snap.At || dec.Seq != snap.Seq || len(dec.Events) != len(snap.Events) {
		t.Fatalf("decoded header differs: %+v vs %+v", dec, snap)
	}
	// Every kind, the datagram and app-log kinds among them, survives the
	// round trip and renders in the timeline by its name.
	seen, timeline := map[EventKind]bool{}, dec.Timeline()
	for i, e := range dec.Events {
		if e != snap.Events[i] {
			t.Fatalf("event %d decoded as %+v, recorded %+v", i, e, snap.Events[i])
		}
		if line := timeline[i+1]; !strings.Contains(line, " "+evKindNames[e.Kind]+" ") {
			t.Errorf("timeline line %q does not name kind %d %q", line, e.Kind, evKindNames[e.Kind])
		}
		seen[e.Kind] = true
	}
	for k := EventKind(1); k < evKindEnd; k++ {
		if !seen[k] || evKindNames[k] == "" {
			t.Errorf("kind %d (%q) missing from the round trip or unnamed", k, k)
		}
	}
}

func TestSnapshotDecodeRejectsHostileInput(t *testing.T) {
	valid := (&Snapshot{Session: "s", Reason: "r", At: 5, Seq: 1,
		Events: []Event{{At: 1, Kind: EvFrameSend, B: 9}}}).Encode()
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrSnapMagic},
		{"bad magic", []byte("NOPE"), ErrSnapMagic},
		{"magic only", []byte(snapMagic), ErrSnapTruncated},
		{"truncated tail", valid[:len(valid)-1], ErrSnapTruncated},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xFF), ErrSnapRange},
		// session len 0, reason len 0, at 0, seq 0, overwritten 0, then a
		// varint event count above maxSnapEvents.
		{"huge event count", append(append([]byte(nil), snapMagic...),
			0, 0, 0, 0, 0, 0x81, 0x80, 0x80, 0x01), ErrSnapRange},
	}
	for _, tc := range cases {
		if _, err := DecodeSnapshot(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeSnapshot(valid); err != nil {
		t.Fatalf("control: valid input rejected: %v", err)
	}
}
