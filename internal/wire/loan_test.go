package wire_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/wire"
)

// loanKeeper is an OnMessage that breaks the loan on purpose: it keeps the
// payload slice it is lent, and a copy to compare against.
type loanKeeper struct {
	mu     sync.Mutex
	kept   []byte
	copied []byte
	got    chan struct{}
}

func newLoanKeeper() *loanKeeper { return &loanKeeper{got: make(chan struct{}, 1)} }

func (k *loanKeeper) onMessage(m wire.Message) {
	k.mu.Lock()
	k.kept, k.copied = m.Payload, bytes.Clone(m.Payload)
	k.mu.Unlock()
	select {
	case k.got <- struct{}{}:
	default:
	}
}

// check runs once the transport is done with the buffer: the copy made in
// the call holds the bytes sent, the slice kept past it reads poison.
func (k *loanKeeper) check(t *testing.T, sent []byte) {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	if !bytes.Equal(k.copied, sent) {
		t.Fatalf("OnMessage was lent %q, want %q", k.copied, sent)
	}
	if want := bytes.Repeat([]byte{0xDB}, len(sent)); !bytes.Equal(k.kept, want) {
		t.Errorf("payload kept past OnMessage reads %x, want it poisoned: OnMessage was handed a copy, not a loan", k.kept)
	}
}

var loanStreams = []wire.StreamSpec{{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6}}

// Message.Payload is a loan of the transport's receive buffer, valid until
// OnMessage returns: with receive buffers poisoned, a slice OnMessage keeps
// reads 0xDB once the transport has the buffer back — on a kernel socket
// and on the simulator's endpoint alike, sealed frames opened in place.
func TestOnMessagePayloadIsLoan(t *testing.T) {
	wire.PoisonRecvBuffers(t)
	key := []byte("0123456789abcdef")
	sent := []byte("a frame the receiver only borrows")

	t.Run("loopback", func(t *testing.T) {
		k := newLoanKeeper()
		srv, err := wire.Listen("127.0.0.1:0", wire.Config{Key: key, OnMessage: k.onMessage})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cl, err := wire.Dial(srv.LocalAddr().String(), wire.Config{Key: key, Streams: loanStreams})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if ok, err := cl.Send(1, sent); err != nil || !ok {
			t.Fatal("send refused", err)
		}
		select {
		case <-k.got:
		case <-time.After(5 * time.Second):
			t.Fatal("frame never delivered")
		}
		// Close waits for the reader, so the poisoning that follows the
		// delivery callback's return has happened.
		srv.Close()
		k.check(t, sent)
	})

	t.Run("marsim", func(t *testing.T) {
		s := marsim.NewScenario("loan", 1)
		k := newLoanKeeper()
		sep := s.Net.NewEndpoint("server", lossless)
		if _, err := wire.ListenVia(sep, wire.Config{Key: key, Clock: s.Clock, OnMessage: k.onMessage}); err != nil {
			t.Fatal(err)
		}
		cl, err := wire.DialVia(s.Net.NewEndpoint("client", lossless), sep.UDPAddr(),
			wire.Config{Key: key, Clock: s.Clock, Streams: loanStreams})
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := cl.Send(1, sent); err != nil || !ok {
			t.Fatal("send refused", err)
		}
		if err := s.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		k.check(t, sent)
	})
}
