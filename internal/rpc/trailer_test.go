package rpc

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/wire"
)

// rawCall drives the server with a hand-built request frame over a bare
// wire.Conn so tests can assert the exact response byte layout. traceID 0
// sends a legacy (v2) frame; nonzero sends a traced (v3) frame.
func rawCall(t *testing.T, conn *wire.Conn, resps <-chan wire.Message, id uint64, method uint8, payload []byte, traceID uint64) wire.Message {
	t.Helper()
	req := make([]byte, reqHeader+len(payload))
	binary.LittleEndian.PutUint64(req, id)
	req[8] = method
	req[9] = byte(core.PrioHighest)
	binary.LittleEndian.PutUint32(req[10:14], 2_000_000) // 2 s budget
	copy(req[reqHeader:], payload)
	ok, err := conn.SendTraced(reqStream, req, traceID, traceID)
	if err != nil || !ok {
		t.Fatalf("send request %d: ok=%v err=%v", id, ok, err)
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case m := <-resps:
			if len(m.Payload) >= 8 && binary.LittleEndian.Uint64(m.Payload) == id {
				return m
			}
		case <-deadline:
			t.Fatalf("no response for request %d", id)
		}
	}
}

// TestResponseTrailerWireLayout pins the response byte layout across wire
// versions: untraced (v2) responses are exactly the legacy
// [header][payload] frame, traced (v3) responses insert the 8-byte
// [queue µs][service µs] trailer between them — including on typed
// refusals, where the trailer blames the server queue with zero service.
func TestResponseTrailerWireLayout(t *testing.T) {
	const serviceSleep = 15 * time.Millisecond
	srv, err := NewServer("127.0.0.1:0", nil, func(method uint8, req []byte) []byte {
		time.Sleep(serviceSleep)
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resps := make(chan wire.Message, 16)
	conn, err := wire.Dial(srv.Addr(), wire.Config{
		Streams: []wire.StreamSpec{
			{ID: reqStream, Class: core.ClassLossRecovery, Priority: core.PrioHighest,
				Rate: 10e6, Deadline: 250 * time.Millisecond},
		},
		StartBudget: 10e6,
		OnMessage: func(m wire.Message) {
			if m.Stream == respStream {
				m.Payload = bytes.Clone(m.Payload) // lent until we return
				resps <- m
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	echo := []byte("frame-payload")

	// Untraced request: the response must be byte-identical to the legacy
	// layout — no trace context, no trailer.
	m := rawCall(t, conn, resps, 1, methodEcho, echo, 0)
	if m.TraceID != 0 {
		t.Errorf("untraced response carries trace id %x", m.TraceID)
	}
	if len(m.Payload) != respHeader+len(echo) {
		t.Fatalf("untraced response length = %d, want header %d + payload %d",
			len(m.Payload), respHeader, len(echo))
	}
	if m.Payload[9] != statusOK || !bytes.Equal(m.Payload[respHeader:], echo) {
		t.Errorf("untraced response corrupted: status %d payload %q",
			m.Payload[9], m.Payload[respHeader:])
	}

	// Traced request: trace context echoed, trailer inserted, payload intact
	// after it. The service field must reflect the handler's sleep.
	m = rawCall(t, conn, resps, 2, methodEcho, echo, 0xABCD)
	if m.TraceID != 0xABCD {
		t.Errorf("traced response trace id = %x, want abcd", m.TraceID)
	}
	if len(m.Payload) != respHeader+traceTrailer+len(echo) {
		t.Fatalf("traced response length = %d, want header %d + trailer %d + payload %d",
			len(m.Payload), respHeader, traceTrailer, len(echo))
	}
	queued := binary.LittleEndian.Uint32(m.Payload[respHeader:])
	service := binary.LittleEndian.Uint32(m.Payload[respHeader+4:])
	if service < 10_000 || service > 5_000_000 {
		t.Errorf("service time = %d µs, want roughly the %v handler sleep", service, serviceSleep)
	}
	if queued > 5_000_000 {
		t.Errorf("queue wait = %d µs on an idle server", queued)
	}
	if !bytes.Equal(m.Payload[respHeader+traceTrailer:], echo) {
		t.Errorf("traced payload corrupted: %q", m.Payload[respHeader+traceTrailer:])
	}

	// Refusals keep the contract: traced rejections still carry the
	// trailer (zero service), untraced rejections stay legacy.
	srv.SetDraining(true)
	m = rawCall(t, conn, resps, 3, methodEcho, echo, 0xBEEF)
	if m.TraceID != 0xBEEF || m.Payload[9] != statusDraining {
		t.Fatalf("traced refusal: trace %x status %d", m.TraceID, m.Payload[9])
	}
	if len(m.Payload) != respHeader+traceTrailer {
		t.Fatalf("traced refusal length = %d, want header %d + trailer %d (no payload)",
			len(m.Payload), respHeader, traceTrailer)
	}
	if service := binary.LittleEndian.Uint32(m.Payload[respHeader+4:]); service != 0 {
		t.Errorf("refusal reports %d µs of service time, want 0", service)
	}
	m = rawCall(t, conn, resps, 4, methodEcho, echo, 0)
	if m.TraceID != 0 || m.Payload[9] != statusDraining || len(m.Payload) != respHeader {
		t.Errorf("untraced refusal: trace %x status %d len %d, want legacy header only",
			m.TraceID, m.Payload[9], len(m.Payload))
	}
}

// TestTrailerPopulatesBudgetReports: the server-measured queue wait and
// service time must surface in the client's BudgetReports as the Queue
// and Compute stages. One slot and concurrent slow calls force real
// queueing, so both fields are visibly nonzero.
func TestTrailerPopulatesBudgetReports(t *testing.T) {
	const serviceSleep = 20 * time.Millisecond
	srv, err := NewServer("127.0.0.1:0", nil, func(method uint8, req []byte) []byte {
		time.Sleep(serviceSleep)
		return req
	}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr(), ClientConfig{Tracer: obs.NewTracer(64, 1), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const calls = 4
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cl.Call(methodEcho, []byte{byte(i)}, 2*time.Second); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	reports := cl.BudgetTracker().Reports()
	if len(reports) != calls {
		t.Fatalf("reports = %d, want %d", len(reports), calls)
	}
	var maxQueue, maxCompute time.Duration
	for i, r := range reports {
		if r.Trace == 0 {
			t.Errorf("report %d has no trace id", i)
		}
		if r.Queue > maxQueue {
			maxQueue = r.Queue
		}
		if r.Compute > maxCompute {
			maxCompute = r.Compute
		}
	}
	if maxCompute < serviceSleep/2 {
		t.Errorf("max Compute stage = %v, server slept %v per call", maxCompute, serviceSleep)
	}
	// Three calls queued behind the first on the single slot, so at
	// least one report must show a serious queue wait.
	if maxQueue < serviceSleep/2 {
		t.Errorf("max Queue stage = %v despite %d calls on one %v-slow slot",
			maxQueue, calls, serviceSleep)
	}
}

// legacyPeer is a wire-level fake server predating the timing trailer.
// echoTrace selects its vintage: true answers traced requests with trace
// context echoed but NO trailer appended (a v3 peer built before the
// trailer existed); false answers every request as plain legacy v2.
func legacyPeer(t *testing.T, echoTrace bool, reply []byte) *wire.Mux {
	t.Helper()
	handle := func(m wire.Message) {
		if m.Stream != reqStream || len(m.Payload) < reqHeader {
			return
		}
		conn := m.Conn
		out := make([]byte, respHeader+len(reply))
		copy(out, m.Payload[:8]) // echo the call id
		out[8] = m.Payload[8]
		out[9] = statusOK
		copy(out[respHeader:], reply)
		if echoTrace {
			conn.SendTraced(respStream, out, m.TraceID, m.SpanID) //nolint:errcheck
		} else {
			conn.Send(respStream, out) //nolint:errcheck
		}
	}
	mux, err := wire.ListenMux("127.0.0.1:0", func(*net.UDPAddr) wire.Config {
		return wire.Config{
			Streams: []wire.StreamSpec{
				{ID: respStream, Class: core.ClassLossRecovery, Priority: core.PrioHighest,
					Rate: 10e6, Deadline: time.Second},
			},
			StartBudget: 10e6,
			OnMessage:   handle,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mux.Close() })
	return mux
}

// TestTracedClientAgainstUntraileredPeer: a traced client calling a peer
// that echoes trace context but never learned the trailer must take the
// no-trailer parse branch — the short body is all payload, and the Queue
// and Compute stages stay zero instead of swallowing payload bytes.
func TestTracedClientAgainstUntraileredPeer(t *testing.T) {
	// The reply is deliberately shorter than the 8-byte trailer: a
	// trailer-aware client that guessed wrong would misparse or reject it.
	reply := []byte("ok!")
	mux := legacyPeer(t, true, reply)

	cl, err := Dial(mux.LocalAddr().String(), ClientConfig{Tracer: obs.NewTracer(16, 3), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Call(methodEcho, []byte("hello"), 2*time.Second)
	if err != nil || !bytes.Equal(resp, reply) {
		t.Fatalf("call against untrailered peer: %q, %v", resp, err)
	}
	reports := cl.BudgetTracker().Reports()
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	r := reports[0]
	if r.Queue != 0 || r.Compute != 0 {
		t.Errorf("stages without a trailer: queue %v compute %v, want 0/0", r.Queue, r.Compute)
	}
	if r.Trace == 0 {
		t.Error("traced call lost its trace id")
	}
}

// TestTracedClientAgainstLegacyPeer: a fully legacy (v2) peer answers a
// traced request without echoing trace context at all. The response body
// is longer than a trailer, so only the zero trace id keeps the client
// from stripping 8 payload bytes as timing.
func TestTracedClientAgainstLegacyPeer(t *testing.T) {
	reply := []byte("legacy-response-payload") // > traceTrailer bytes
	mux := legacyPeer(t, false, reply)

	cl, err := Dial(mux.LocalAddr().String(), ClientConfig{Tracer: obs.NewTracer(16, 4), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Call(methodEcho, []byte("hi"), 2*time.Second)
	if err != nil || !bytes.Equal(resp, reply) {
		t.Fatalf("call against legacy peer: %q, %v", resp, err)
	}
	reports := cl.BudgetTracker().Reports()
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	if r := reports[0]; r.Queue != 0 || r.Compute != 0 {
		t.Errorf("legacy response produced stages: queue %v compute %v", r.Queue, r.Compute)
	}
}
