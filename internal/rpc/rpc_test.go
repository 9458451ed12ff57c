package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"marnet/internal/faults"
	"marnet/internal/wire"
)

const (
	methodEcho  = 1
	methodPose  = 2
	methodSleep = 3
)

func testHandler(method uint8, req []byte) []byte {
	switch method {
	case methodEcho:
		return req
	case methodPose:
		return []byte("pose:" + string(req))
	case methodSleep:
		time.Sleep(300 * time.Millisecond)
		return []byte("late")
	default:
		return nil
	}
}

func newPair(t *testing.T, key []byte) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", key, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr(), ClientConfig{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestCallRoundTrip(t *testing.T) {
	srv, cl := newPair(t, nil)
	resp, err := cl.Call(methodEcho, []byte("hello"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("hello")) {
		t.Fatalf("resp = %q", resp)
	}
	resp, err = cl.Call(methodPose, []byte("frame-7"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "pose:frame-7" {
		t.Fatalf("resp = %q", resp)
	}
	if srv.Served() != 2 {
		t.Errorf("served = %d", srv.Served())
	}
}

func TestCallDeadline(t *testing.T) {
	_, cl := newPair(t, nil)
	_, err := cl.Call(methodSleep, nil, 50*time.Millisecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if st := cl.Stats(); st.Timeouts != 1 {
		t.Errorf("timeouts = %d", st.Timeouts)
	}
}

func TestCallEncrypted(t *testing.T) {
	key := bytes.Repeat([]byte{3}, 16)
	_, cl := newPair(t, key)
	resp, err := cl.Call(methodEcho, []byte("secret"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "secret" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, cl := newPair(t, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := []byte{byte(i)}
			resp, err := cl.Call(methodEcho, req, 3*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(resp, req) {
				errs <- errors.New("response mismatch")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQueuedRequestKeepsItsBytes: a queued request outlives the datagram
// that carried it — the reader has gone on reading into (and, under -race,
// poisoning) that buffer — so the server's call record must keep its own
// copy. The one slot is held on a first call while 32 distinct requests queue
// behind it on a real socket; each body carries a digest of itself, checked
// when the slot finally serves it.
func TestQueuedRequestKeepsItsBytes(t *testing.T) {
	const (
		methodHold   = 10
		methodDigest = 11
		queued       = 32
	)
	digest := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b) //nolint:errcheck // never fails
		return h.Sum64()
	}
	held, release := make(chan struct{}), make(chan struct{})
	handler := func(method uint8, req []byte) []byte {
		if method == methodHold {
			close(held)
			<-release
			return nil
		}
		n := len(req) - 8
		if n < 8 || binary.LittleEndian.Uint64(req[n:]) != digest(req[:n]) {
			return []byte("corrupt")
		}
		return req[:8] // the request's sequence number
	}
	srv, err := NewServer("127.0.0.1:0", nil, handler, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	holdDone := make(chan error, 1)
	go func() {
		_, err := cl.Call(methodHold, nil, 5*time.Second)
		holdDone <- err
	}()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("the holding call never reached the slot")
	}
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		req := make([]byte, 400)
		binary.LittleEndian.PutUint64(req, uint64(i))
		for j := 8; j < len(req)-8; j++ {
			req[j] = byte(i*31 + j)
		}
		binary.LittleEndian.PutUint64(req[len(req)-8:], digest(req[:len(req)-8]))
		go func() {
			resp, err := cl.Call(methodDigest, req, 5*time.Second)
			if err == nil && !bytes.Equal(resp, req[:8]) {
				err = fmt.Errorf("request %d answered %q", binary.LittleEndian.Uint64(req), resp)
			}
			errs <- err
		}()
	}
	// Release the slot only once every request waits in the queue.
	for end := time.Now().Add(5 * time.Second); srv.Gate().Stats().Admitted < queued+1; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("admitted %d, want the held call and %d queued", srv.Gate().Stats().Admitted, queued)
		}
	}
	close(release)
	if err := <-holdDone; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queued; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestOneSlotStrandsNoCall pins the slot hand-off on sockets. A slot's
// goroutine that finds the queue empty frees its slot and then looks
// again: a request admitted in that gap found no free slot, and without
// the second look it would wait for the next arrival — here there is none,
// so it would run out its deadline.
//
// Four clients make lone calls on a server with one slot. Client 0 holds
// the slot with a first call while clients 1-3 queue requests whose 1 ms
// deadline passes in the queue; then they stop, and the slot is released.
// Its goroutine answers the held call and pops the expired requests, and
// it sends their refusals in the gap, before it frees the slot. Client 0's
// next call, sent the moment its first is answered, arrives in that gap;
// it must be answered well inside its deadline.
func TestOneSlotStrandsNoCall(t *testing.T) {
	const (
		methodHold   = 10
		methodDoomed = 11 // never served, so the gate never learns its cost
		rounds       = 5
		deadline     = time.Second
	)
	held, release := make(chan struct{}), make(chan struct{})
	handler := func(method uint8, req []byte) []byte {
		if method == methodHold {
			held <- struct{}{}
			<-release
		}
		return req
	}
	srv, err := NewServer("127.0.0.1:0", nil, handler, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var cls [4]*Client
	for i := range cls {
		if cls[i], err = Dial(srv.Addr(), ClientConfig{}); err != nil {
			t.Fatal(err)
		}
		defer cls[i].Close()
	}
	for r := 0; r < rounds; r++ {
		done := make(chan error, 1)
		go func() {
			if _, err := cls[0].Call(methodHold, nil, deadline); err != nil {
				done <- fmt.Errorf("held call: %w", err)
				return
			}
			t0 := time.Now()
			_, err := cls[0].Call(methodEcho, []byte("next"), deadline)
			if took := time.Since(t0); err == nil && took > deadline/4 {
				err = fmt.Errorf("answered after %v", took)
			}
			done <- err
		}()
		<-held
		before := srv.Stats().Gate.Admitted
		stop := make(chan struct{})
		var doomed sync.WaitGroup
		for _, cl := range cls[1:] {
			doomed.Add(1)
			go func() {
				defer doomed.Done()
				for {
					select {
					case <-stop:
						return
					default:
						cl.Call(methodDoomed, nil, time.Millisecond) //nolint:errcheck // expires in the queue by design
					}
				}
			}()
		}
		for end := time.Now().Add(5 * time.Second); srv.Stats().Gate.Admitted < before+30; time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("round %d: %d requests queued behind the held call, want 30", r, srv.Stats().Gate.Admitted-before)
			}
		}
		close(stop)
		doomed.Wait()
		time.Sleep(2 * time.Millisecond) // the last of them expire too
		release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if st := srv.Stats(); st.ExpiredInQueue == 0 {
		t.Fatalf("no request expired in the queue: %+v", st)
	}
}

func TestCallThroughLossyRelay(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	lossy := faults.DirConfig{DropEvery: 6, Delay: 2 * time.Millisecond}
	relay, err := faults.NewRelay(srv.Addr(), faults.Config{Up: lossy, Down: lossy})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	cl, err := Dial(relay.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	okCount := 0
	for i := 0; i < 30; i++ {
		if _, err := cl.Call(methodEcho, []byte{byte(i)}, 2*time.Second); err == nil {
			okCount++
		}
	}
	if okCount < 28 { // transport retransmission should repair nearly all
		t.Errorf("only %d/30 calls succeeded through the lossy relay", okCount)
	}
	if relay.Counters(faults.Both).Dropped == 0 {
		t.Error("relay dropped nothing")
	}
}

func TestCallValidation(t *testing.T) {
	_, cl := newPair(t, nil)
	if _, err := cl.Call(methodEcho, make([]byte, wire.MaxPayload), time.Second); !errors.Is(err, ErrTooBig) {
		t.Errorf("oversize err = %v", err)
	}
	cl.Close()
	if _, err := cl.Call(methodEcho, nil, time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("closed err = %v", err)
	}
	if _, err := NewServer("127.0.0.1:0", nil, nil); err == nil {
		t.Error("nil handler should fail")
	}
}

func TestClientCloseUnblocksPending(t *testing.T) {
	_, cl := newPair(t, nil)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Call(methodSleep, nil, 5*time.Second)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cl.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not unblocked by Close")
	}
}

func TestServerServesMultipleClients(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, testHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const nClients = 5
	var wg sync.WaitGroup
	errs := make(chan error, nClients*10)
	for c := 0; c < nClients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(srv.Addr(), ClientConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 10; i++ {
				req := []byte{byte(c), byte(i)}
				resp, err := cl.Call(methodEcho, req, 3*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, req) {
					errs <- errors.New("cross-client response corruption")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if srv.Served() != nClients*10 {
		t.Errorf("served = %d, want %d", srv.Served(), nClients*10)
	}
	if srv.Clients() != nClients {
		t.Errorf("clients = %d, want %d", srv.Clients(), nClients)
	}
}
