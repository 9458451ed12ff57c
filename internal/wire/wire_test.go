package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"marnet/internal/core"
	"marnet/internal/faults"
)

func TestFrameRoundTrip(t *testing.T) {
	h := Header{
		Type: TypeData, Stream: 7, Class: uint8(core.ClassCritical),
		Prio: uint8(core.PrioHighest), Seq: 123456789, SendMicro: 987654321,
	}
	payload := []byte("hello artp")
	frame, err := AppendFrame(nil, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	h.PayloadLen = uint16(len(payload))
	if !sameHeader(got, h) {
		t.Errorf("header = %+v, want %+v", got, h)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload mismatch")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(stream uint16, class, prio uint8, seq int64, micro uint64, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		h := Header{Type: TypeData, Stream: stream, Class: class, Prio: prio, Seq: seq, SendMicro: micro}
		frame, err := AppendFrame(nil, h, payload)
		if err != nil {
			return false
		}
		got, gotPayload, err := DecodeFrame(frame)
		if err != nil {
			return false
		}
		return got.Stream == stream && got.Class == class && got.Prio == prio &&
			got.Seq == seq && got.SendMicro == micro && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeFrame([]byte{1, 2}); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short: %v", err)
	}
	frame, _ := AppendFrame(nil, Header{Type: TypeAck}, nil)
	bad := append([]byte(nil), frame...)
	bad[0] = 0
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("magic: %v", err)
	}
	bad = append([]byte(nil), frame...)
	bad[2] = 17 // the bit above path
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadFlags) {
		t.Errorf("flags: %v", err)
	}
	bad = append([]byte(nil), frame...)
	bad[3] = 99
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrBadType) {
		t.Errorf("type: %v", err)
	}
	// Truncated payload.
	h := Header{Type: TypeData}
	full, _ := AppendFrame(nil, h, []byte("0123456789"))
	if _, _, err := DecodeFrame(full[:len(full)-3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
	if _, err := AppendFrame(nil, Header{Type: 42}, nil); !errors.Is(err, ErrBadType) {
		t.Errorf("encode bad type: %v", err)
	}
	if _, err := AppendFrame(nil, Header{Type: TypeData}, make([]byte, MaxPayload+1)); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize: %v", err)
	}
}

func TestNackPayloadRoundTrip(t *testing.T) {
	missing := []int64{1, 5, 9, 1 << 40}
	p := AppendNackPayload(nil, missing)
	got, err := DecodeNackPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(missing) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range missing {
		if got[i] != missing[i] {
			t.Fatalf("got %v, want %v", got, missing)
		}
	}
	if _, err := DecodeNackPayload([]byte{1}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short nack: %v", err)
	}
	if _, err := DecodeNackPayload([]byte{2, 0, 1}); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated nack: %v", err)
	}
}

// collector accumulates received messages thread-safely. The payload is
// lent to OnMessage, so add keeps a copy.
type collector struct {
	mu   sync.Mutex
	msgs []Message
}

func (c *collector) add(m Message) {
	m.Payload = bytes.Clone(m.Payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

func TestLoopbackDelivery(t *testing.T) {
	var rx collector
	server, err := Listen("127.0.0.1:0", Config{OnMessage: rx.add})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	client, err := Dial(server.LocalAddr().String(), Config{
		Streams: []StreamSpec{
			{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6},
		},
		StartBudget: 10e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 50
	for i := 0; i < n; i++ {
		ok, err := client.Send(1, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("critical send shed")
		}
	}
	// Zero retransmits is asserted where time is exact: on the lossless
	// simulated link of TestSimDeliveryInvariants.
	if !waitFor(t, 3*time.Second, func() bool { return rx.count() >= n }) {
		t.Fatalf("received %d/%d", rx.count(), n)
	}
}

func TestLossRecoveryThroughLossyRelay(t *testing.T) {
	var rx collector
	server, err := Listen("127.0.0.1:0", Config{OnMessage: rx.add})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	relay := lossyRelay(t, server.LocalAddr().String(), 7, 2*time.Millisecond)

	client, err := Dial(relay.Addr(), Config{
		Streams: []StreamSpec{
			{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 2e6},
		},
		StartBudget: 5e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 100
	for i := 0; i < n; i++ {
		if _, err := client.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 8*time.Second, func() bool { return rx.count() >= n }) {
		t.Fatalf("received %d/%d through lossy relay (relay dropped %d)", rx.count(), n, relay.Counters(faults.Both).Dropped)
	}
	if relay.Counters(faults.Both).Dropped == 0 {
		t.Error("relay dropped nothing — test is vacuous")
	}
	if st := client.Stats(1); st.Retx == 0 {
		t.Error("expected retransmissions through lossy relay")
	}
	// No duplicates delivered to the app.
	seen := map[int64]bool{}
	rx.mu.Lock()
	for _, m := range rx.msgs { // each payload is its send index
		if k := int64(m.Payload[0]); seen[k] {
			t.Errorf("duplicate message %d delivered", k)
		} else {
			seen[k] = true
		}
	}
	rx.mu.Unlock()
}

func TestBestEffortShedsWhenOverAllocated(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddr().String(), Config{
		Streams: []StreamSpec{
			{ID: 2, Class: core.ClassFullBestEffort, Priority: core.PrioLowest, Rate: 50e3},
		},
		StartBudget: 50e3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	shed := 0
	for i := 0; i < 200; i++ {
		ok, err := client.Send(2, make([]byte, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			shed++
		}
	}
	if shed == 0 {
		t.Error("over-allocation never shed on a 50 kb/s stream")
	}
	if st := client.Stats(2); st.Shed != int64(shed) {
		t.Errorf("stats.Shed = %d, want %d", st.Shed, shed)
	}
}

func TestSendValidation(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddr().String(), Config{
		Streams: []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Send(99, []byte("x")); err == nil {
		t.Error("unknown stream should error")
	}
	if _, err := client.Send(1, make([]byte, MaxPayload+1)); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize: %v", err)
	}
	client.Close()
	if _, err := client.Send(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("closed: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestQoSFeedbackOverWire(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	var mu sync.Mutex
	var allocs []float64
	client, err := Dial(server.LocalAddr().String(), Config{
		Streams: []StreamSpec{
			{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 0.5e6},
			{ID: 2, Class: core.ClassFullBestEffort, Priority: core.PrioLowest, Rate: 2e6,
				OnAllocate: func(r float64) {
					mu.Lock()
					allocs = append(allocs, r)
					mu.Unlock()
				}},
		},
		StartBudget: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	mu.Lock()
	n := len(allocs)
	var first float64
	if n > 0 {
		first = allocs[0]
	}
	mu.Unlock()
	if n == 0 {
		t.Fatal("no initial allocation callback")
	}
	// Budget 1e6, critical takes 0.5e6, best effort gets the remaining.
	if first != 0.5e6 {
		t.Errorf("initial allocation = %v, want 0.5e6", first)
	}
}

func TestRTTEstablishesOverLoopback(t *testing.T) {
	var rx collector
	server, err := Listen("127.0.0.1:0", Config{OnMessage: rx.add})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddr().String(), Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}},
		StartBudget: 10e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 20; i++ {
		client.Send(1, []byte("probe")) //nolint:errcheck
	}
	if !waitFor(t, 3*time.Second, func() bool {
		client.mu.Lock()
		defer client.mu.Unlock()
		return client.core.ctrl.RTT().Smoothed() > 0
	}) {
		t.Fatal("no RTT estimate established")
	}
}

func TestStatsUnknownStreamAndBudget(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddr().String(), Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}},
		StartBudget: 3e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if st := client.Stats(99); st != (StreamStats{}) {
		t.Errorf("unknown stream stats = %+v, want zero", st)
	}
	if got := client.Budget(); got != 3e6 {
		t.Errorf("budget = %v, want 3e6", got)
	}
}

func TestServerAcceptsUndeclaredStream(t *testing.T) {
	// A server with no stream declarations still receives and acks data on
	// whatever streams the client uses.
	var rx collector
	server, err := Listen("127.0.0.1:0", Config{OnMessage: rx.add})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddr().String(), Config{
		Streams:     []StreamSpec{{ID: 7, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}},
		StartBudget: 5e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 10; i++ {
		client.Send(7, []byte("x")) //nolint:errcheck
	}
	if !waitFor(t, 2*time.Second, func() bool { return rx.count() >= 10 }) {
		t.Fatalf("received %d/10 on undeclared stream", rx.count())
	}
	if st := server.Stats(7); st.Received != 10 {
		t.Errorf("server stats for learned stream = %+v", st)
	}
}
