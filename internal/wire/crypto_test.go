package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/faults"
)

func TestSealerRoundTrip(t *testing.T) {
	s, err := newSealer(bytes.Repeat([]byte{7}, 16))
	if err != nil {
		t.Fatal(err)
	}
	h := Header{Type: TypeData, Stream: 3, Seq: 42, SendMicro: 99}
	plain := []byte("the quick brown fox")
	sealed, err := s.seal(h, plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, plain) {
		t.Fatal("sealed frame contains plaintext")
	}
	got, err := s.open(h, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatalf("got %q", got)
	}
}

func TestSealerRejectsTamperedHeaderAndPayload(t *testing.T) {
	s, _ := newSealer(bytes.Repeat([]byte{7}, 32))
	h := Header{Type: TypeData, Stream: 3, Seq: 42}
	sealed, _ := s.seal(h, []byte("payload"))

	// Flip a ciphertext bit.
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-1] ^= 1
	if _, err := s.open(h, bad); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("tampered payload: err = %v", err)
	}
	// Splice onto a different header (seq changed).
	h2 := h
	h2.Seq = 43
	if _, err := s.open(h2, sealed); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("spliced header: err = %v", err)
	}
	// Truncated.
	if _, err := s.open(h, sealed[:10]); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("truncated: err = %v", err)
	}
}

func TestSealerNoncesAreFresh(t *testing.T) {
	s, _ := newSealer(bytes.Repeat([]byte{1}, 16))
	h := Header{Type: TypeData, Stream: 1, Seq: 1}
	a, _ := s.seal(h, []byte("x"))
	b, _ := s.seal(h, []byte("x"))
	if bytes.Equal(a, b) {
		t.Fatal("sealing the same frame twice produced identical output (nonce reuse)")
	}
}

func TestSealerNoncesRandomlySeeded(t *testing.T) {
	// Sealers sharing one key (one per Conn, one per mux peer) must start
	// at independent random points of the 96-bit nonce space — counters
	// that all start at zero would reuse nonces under the same key as soon
	// as two instances collide on a prefix.
	a, _ := newSealer(bytes.Repeat([]byte{1}, 16))
	b, _ := newSealer(bytes.Repeat([]byte{1}, 16))
	var na, nb [nonceLen]byte
	a.putNonce(na[:])
	b.putNonce(nb[:])
	if bytes.Equal(na[:], nb[:]) {
		t.Fatal("two sealers produced the same first nonce")
	}
	if a.nonceLo.Load() == 1 || b.nonceLo.Load() == 1 {
		t.Fatal("nonce counter started at zero instead of a random seed")
	}
}

func TestSealerNonceCarryAcrossLowWordWrap(t *testing.T) {
	s, _ := newSealer(bytes.Repeat([]byte{3}, 16))
	s.nonceLo.Store(^uint64(0) - 1) // two increments from the wrap
	hi := s.nonceHi.Load()
	seen := map[[nonceLen]byte]bool{}
	var n [nonceLen]byte
	for i := 0; i < 4; i++ {
		s.putNonce(n[:])
		if seen[n] {
			t.Fatalf("nonce repeated across the low-word wrap: %x", n)
		}
		seen[n] = true
	}
	if got := s.nonceHi.Load(); got != hi+1 {
		t.Fatalf("high word = %d after wrap, want %d (carry lost)", got, hi+1)
	}
}

func TestNewSealerKeyValidation(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 33} {
		if _, err := newSealer(make([]byte, n)); !errors.Is(err, ErrBadKey) {
			t.Errorf("key len %d: err = %v", n, err)
		}
	}
	for _, n := range []int{16, 24, 32} {
		if _, err := newSealer(make([]byte, n)); err != nil {
			t.Errorf("key len %d: %v", n, err)
		}
	}
}

func TestEncryptedLoopbackDelivery(t *testing.T) {
	key := bytes.Repeat([]byte{0xAB}, 16)
	var rx collector
	server, err := Listen("127.0.0.1:0", Config{OnMessage: rx.add, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddr().String(), Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}},
		StartBudget: 10e6,
		Key:         key,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := client.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 3*time.Second, func() bool { return rx.count() >= n }) {
		t.Fatalf("received %d/%d encrypted messages", rx.count(), n)
	}
	// Payload integrity end to end.
	rx.mu.Lock()
	defer rx.mu.Unlock()
	seen := map[byte]bool{}
	for _, m := range rx.msgs {
		if len(m.Payload) != 1 {
			t.Fatalf("payload len %d", len(m.Payload))
		}
		seen[m.Payload[0]] = true
	}
	if len(seen) != n {
		t.Errorf("distinct payloads = %d, want %d", len(seen), n)
	}
}

func TestKeyMismatchDropsEverything(t *testing.T) {
	var rx collector
	server, err := Listen("127.0.0.1:0", Config{
		OnMessage: rx.add, Key: bytes.Repeat([]byte{1}, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddr().String(), Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioNoDelay, Rate: 1e6}},
		StartBudget: 10e6,
		Key:         bytes.Repeat([]byte{2}, 16), // wrong key
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 20; i++ {
		client.Send(1, []byte("secret")) //nolint:errcheck
	}
	time.Sleep(300 * time.Millisecond)
	if rx.count() != 0 {
		t.Fatalf("wrong-key frames delivered: %d", rx.count())
	}
	server.mu.Lock()
	fails := server.core.authFailures
	server.mu.Unlock()
	if fails == 0 {
		t.Error("no auth failures recorded")
	}
}

func TestEncryptedThroughLossyRelay(t *testing.T) {
	key := bytes.Repeat([]byte{0x55}, 32)
	var rx collector
	server, err := Listen("127.0.0.1:0", Config{OnMessage: rx.add, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	relay := lossyRelay(t, server.LocalAddr().String(), 8, time.Millisecond)
	client, err := Dial(relay.Addr(), Config{
		Streams:     []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 2e6}},
		StartBudget: 5e6,
		Key:         key,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := client.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 8*time.Second, func() bool { return rx.count() >= n }) {
		t.Fatalf("received %d/%d (relay dropped %d)", rx.count(), n, relay.Counters(faults.Both).Dropped)
	}
}

func TestDialRejectsBadKey(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", Config{Key: []byte("short")}); !errors.Is(err, ErrBadKey) {
		t.Errorf("err = %v, want ErrBadKey", err)
	}
	if _, err := Listen("127.0.0.1:0", Config{Key: []byte("short")}); !errors.Is(err, ErrBadKey) {
		t.Errorf("err = %v, want ErrBadKey", err)
	}
}

func TestSendRespectsSealedMTU(t *testing.T) {
	key := bytes.Repeat([]byte{9}, 16)
	server, err := Listen("127.0.0.1:0", Config{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddr().String(), Config{
		Streams: []StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}},
		Key:     key,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Send(1, make([]byte, MaxPayload-sealedOver)); err != nil {
		t.Errorf("max sealed plaintext rejected: %v", err)
	}
	if _, err := client.Send(1, make([]byte, MaxPayload-sealedOver+1)); !errors.Is(err, ErrOversize) {
		t.Errorf("oversized sealed plaintext accepted: %v", err)
	}
}
