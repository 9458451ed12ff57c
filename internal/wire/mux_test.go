package wire

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/faults"
)

// muxCollector tags received messages with the peer that sent them.
type muxCollector struct {
	mu   sync.Mutex
	from map[string]int
}

func newMuxCollector() *muxCollector {
	return &muxCollector{from: map[string]int{}}
}

func (m *muxCollector) handlerFor(peer *net.UDPAddr) func(Message) {
	key := fmt.Sprint(peer.Port)
	return func(Message) {
		m.mu.Lock()
		m.from[key]++
		m.mu.Unlock()
	}
}

// count looks up deliveries by the peer's source port (the stable part of
// the address across wildcard/loopback renderings).
func (m *muxCollector) count(local *net.UDPAddr) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.from[fmt.Sprint(local.Port)]
}

func clientStreams() []StreamSpec {
	return []StreamSpec{
		{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e6},
	}
}

func TestMuxServesMultipleClients(t *testing.T) {
	rx := newMuxCollector()
	mux, err := ListenMux("127.0.0.1:0", func(peer *net.UDPAddr) Config {
		return Config{OnMessage: rx.handlerFor(peer)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	const nClients = 4
	const perClient = 25
	var clients []*Conn
	for i := 0; i < nClients; i++ {
		cl, err := Dial(mux.LocalAddr().String(), Config{
			Streams: clientStreams(), StartBudget: 10e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients = append(clients, cl)
	}
	for i := 0; i < perClient; i++ {
		for _, cl := range clients {
			if _, err := cl.Send(1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ok := waitFor(t, 5*time.Second, func() bool {
		for _, cl := range clients {
			if rx.count(cl.LocalAddr()) < perClient {
				return false
			}
		}
		return true
	})
	if !ok {
		for _, cl := range clients {
			t.Logf("peer %s: %d/%d", cl.LocalAddr(), rx.count(cl.LocalAddr()), perClient)
		}
		t.Fatal("not all clients fully delivered")
	}
	mux.mu.Lock()
	nConns := len(mux.conns)
	mux.mu.Unlock()
	if nConns != nClients {
		t.Errorf("conns=%d, want %d", nConns, nClients)
	}
	if len(mux.Conns()) != nClients {
		t.Errorf("Conns() = %d", len(mux.Conns()))
	}
}

func TestMuxPerPeerIsolationUnderLoss(t *testing.T) {
	// One client behind a lossy relay, one clean: retransmission state must
	// be independent (the clean client never sees retransmits).
	rx := newMuxCollector()
	mux, err := ListenMux("127.0.0.1:0", func(peer *net.UDPAddr) Config {
		return Config{OnMessage: rx.handlerFor(peer)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	relay := lossyRelay(t, mux.LocalAddr().String(), 5, time.Millisecond)

	lossy, err := Dial(relay.Addr(), Config{Streams: clientStreams(), StartBudget: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	clean, err := Dial(mux.LocalAddr().String(), Config{Streams: clientStreams(), StartBudget: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	const n = 40
	for i := 0; i < n; i++ {
		lossy.Send(1, []byte{byte(i)}) //nolint:errcheck
		clean.Send(1, []byte{byte(i)}) //nolint:errcheck
	}
	// The lossy client is known to the server by the relay's address.
	if !waitFor(t, 8*time.Second, func() bool {
		return rx.count(clean.LocalAddr()) >= n &&
			rx.count(relayClientAddr(relay)) >= n
	}) {
		t.Fatalf("deliveries: clean=%d lossy=%d",
			rx.count(clean.LocalAddr()), rx.count(relayClientAddr(relay)))
	}
	if st := clean.Stats(1); st.Retx != 0 {
		t.Errorf("clean client retransmitted %d times", st.Retx)
	}
	if st := lossy.Stats(1); st.Retx == 0 {
		t.Error("lossy client never retransmitted")
	}
}

// relayClientAddr is the relay's socket address as seen by the mux.
func relayClientAddr(r *faults.Relay) *net.UDPAddr {
	addr, _ := net.ResolveUDPAddr("udp", r.Addr())
	return addr
}

func TestMuxEncryptedClients(t *testing.T) {
	key := bytes.Repeat([]byte{9}, 16)
	rx := newMuxCollector()
	mux, err := ListenMux("127.0.0.1:0", func(peer *net.UDPAddr) Config {
		return Config{OnMessage: rx.handlerFor(peer), Key: key}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	cl, err := Dial(mux.LocalAddr().String(), Config{Streams: clientStreams(), Key: key, StartBudget: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 10; i++ {
		cl.Send(1, []byte("x")) //nolint:errcheck
	}
	if !waitFor(t, 3*time.Second, func() bool { return rx.count(cl.LocalAddr()) >= 10 }) {
		t.Fatal("encrypted mux delivery failed")
	}
}

func TestMuxCloseIdempotentAndValidation(t *testing.T) {
	if _, err := ListenMux("127.0.0.1:0", nil); err == nil {
		t.Error("nil configFor should fail")
	}
	mux, err := ListenMux("127.0.0.1:0", func(*net.UDPAddr) Config { return Config{} })
	if err != nil {
		t.Fatal(err)
	}
	if err := mux.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := mux.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// A new peer's first datagram registers one Conn for it.
func TestMuxOnConnCallback(t *testing.T) {
	var peers []string
	mux, err := ListenMux("127.0.0.1:0", func(peer *net.UDPAddr) Config {
		peers = append(peers, peer.String()) // on the mux's one reader
		return Config{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	cl, err := Dial(mux.LocalAddr().String(), Config{Streams: clientStreams()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Send(1, []byte("x")) //nolint:errcheck
	if !waitFor(t, 2*time.Second, func() bool { return len(mux.Conns()) == 1 }) {
		t.Fatal("new peer never accepted")
	}
	if len(peers) != 1 || peers[0] != mux.Conns()[0].peer.String() {
		t.Fatalf("configured %v, want the one peer once", peers)
	}
}

// A handler may close its own conn: the mux delivers on the transport's
// reader, so Close has no delivery goroutine of the conn's to wait for. It
// returns at once, the conn leaves the mux's peer table, and the mux goes
// on serving other peers.
func TestMuxConnClosesItselfFromOnMessage(t *testing.T) {
	rx := newMuxCollector()
	var once sync.Once
	returned := make(chan struct{})
	mux, err := ListenMux("127.0.0.1:0", func(peer *net.UDPAddr) Config {
		count := rx.handlerFor(peer)
		return Config{OnMessage: func(m Message) {
			first := false
			once.Do(func() {
				first = true
				m.Conn.Close() //nolint:errcheck // the closed conn's own handler
				close(returned)
			})
			if !first {
				count(m)
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	first, err := Dial(mux.LocalAddr().String(), Config{Streams: clientStreams(), StartBudget: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	first.Send(1, []byte("bye")) //nolint:errcheck
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("Conn.Close called from its own OnMessage never returned")
	}
	if !waitFor(t, 2*time.Second, func() bool { return len(mux.Conns()) == 0 }) {
		t.Fatal("the self-closed conn never left the peer table")
	}

	second, err := Dial(mux.LocalAddr().String(), Config{Streams: clientStreams(), StartBudget: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	const n = 10
	for i := 0; i < n; i++ {
		second.Send(1, []byte{byte(i)}) //nolint:errcheck
	}
	if !waitFor(t, 3*time.Second, func() bool { return rx.count(second.LocalAddr()) >= n }) {
		t.Fatalf("second client: %d/%d delivered after the first conn closed itself", rx.count(second.LocalAddr()), n)
	}
}

// A peer costs the mux a Conn, not a goroutine: every peer is served on
// the socket's one reader. Accepting 32 peers may move the goroutine count
// only by timer callbacks in flight.
func TestMuxSpawnsNoGoroutinePerPeer(t *testing.T) {
	const peers = 32
	rx := newMuxCollector()
	mux, err := ListenMux("127.0.0.1:0", func(peer *net.UDPAddr) Config {
		return Config{OnMessage: rx.handlerFor(peer)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	clients := make([]*Conn, 0, peers)
	for i := 0; i < peers; i++ {
		cl, err := Dial(mux.LocalAddr().String(), Config{Streams: clientStreams(), StartBudget: 5e6})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients = append(clients, cl)
	}
	base := runtime.NumGoroutine()
	for _, cl := range clients {
		cl.Send(1, []byte("hello")) //nolint:errcheck
	}
	if !waitFor(t, 5*time.Second, func() bool { return len(mux.Conns()) == peers }) {
		t.Fatalf("accepted %d of %d peers", len(mux.Conns()), peers)
	}
	grew := 0
	if !waitFor(t, time.Second, func() bool {
		grew = runtime.NumGoroutine() - base
		return grew <= 2
	}) {
		t.Fatalf("accepting %d peers added %d goroutines, want <= 2", peers, grew)
	}
}
