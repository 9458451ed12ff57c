package wire

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

// TestRecvBufferPoisonCatchesRetention validates the debug-build
// enforcement of the PacketConn contract ("the callback may retain pkt
// only for the duration of the call"): a callback that squirrels the
// slice away sees its contents replaced by the poison pattern the moment
// it returns, so a retaining caller fails loudly in tests instead of
// corrupting silently in production when the buffer is reused.
func TestRecvBufferPoisonCatchesRetention(t *testing.T) {
	old := poisonRecvBuffers
	poisonRecvBuffers = true
	defer func() { poisonRecvBuffers = old }()

	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	pc := newUDPPacketConn(sock)
	defer pc.Close()

	var mu sync.Mutex
	var retained []byte // contract violation, on purpose
	var copied []byte
	got := make(chan struct{}, 1)
	pc.Start(func(pkt []byte, _ *net.UDPAddr, _ int) {
		mu.Lock()
		retained = pkt
		copied = append([]byte(nil), pkt...)
		mu.Unlock()
		got <- struct{}{}
	})

	sender, err := net.DialUDP("udp", nil, sock.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	msg := bytes.Repeat([]byte{0x11}, 64)
	if _, err := sender.Write(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("datagram never delivered")
	}
	// The callback signalled from inside the call; Close waits for the
	// reader, so the poisoning that follows the callback's return is done.
	pc.Close()

	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(copied, msg) {
		t.Fatalf("in-callback copy = % x, want % x", copied, msg)
	}
	for i, b := range retained {
		if b != poisonByte {
			t.Fatalf("retained[%d] = %#x, want poison %#x — retention would go undetected", i, b, poisonByte)
		}
	}
}

// TestWriteBatchMixedShapes drives WriteBatch with the exact shapes the
// GSO/sendmmsg splitter has to get right — an equal-size run, a short
// tail segment, interleaved destination switches, and odd sizes — and
// asserts every datagram arrives at the right socket with its boundaries
// and contents intact. On platforms without the batch syscalls the same
// batch goes through the portable loop, so the test pins the semantic
// contract everywhere.
func TestWriteBatchMixedShapes(t *testing.T) {
	recv := func() (*net.UDPConn, *net.UDPAddr, *collectorRaw) {
		sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		c := &collectorRaw{}
		go func() {
			buf := make([]byte, 4096)
			for {
				n, _, rerr := sock.ReadFromUDP(buf)
				if rerr != nil {
					return
				}
				c.add(append([]byte(nil), buf[:n]...))
			}
		}()
		return sock, sock.LocalAddr().(*net.UDPAddr), c
	}
	sockA, addrA, rxA := recv()
	defer sockA.Close()
	sockB, addrB, rxB := recv()
	defer sockB.Close()

	ssock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	u := newUDPPacketConn(ssock)
	defer u.Close()

	mk := func(fill byte, n int) []byte { return bytes.Repeat([]byte{fill}, n) }
	var dgs []Datagram
	var wantA, wantB [][]byte
	to := func(addr *net.UDPAddr, want *[][]byte, payloads ...[]byte) {
		for _, p := range payloads {
			dgs = append(dgs, Datagram{B: p, Addr: addr})
			*want = append(*want, p)
		}
	}
	// Equal-size run (GSO-eligible), ending in a short tail segment.
	to(addrA, &wantA, mk(1, 700), mk(2, 700), mk(3, 700), mk(4, 700), mk(5, 123))
	// Destination switch mid-batch, then another run on the new peer.
	to(addrB, &wantB, mk(6, 300), mk(7, 300), mk(8, 300))
	// Sizes that grow (a larger frame must start a new run, never join one).
	to(addrA, &wantA, mk(9, 100), mk(10, 200), mk(11, 300))
	// Alternating peers: no run at all, pure sendmmsg/portable territory.
	to(addrA, &wantA, mk(12, 50))
	to(addrB, &wantB, mk(13, 60))
	to(addrA, &wantA, mk(14, 70))

	n, err := u.WriteBatch(dgs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(dgs) {
		t.Fatalf("WriteBatch sent %d of %d", n, len(dgs))
	}
	check := func(name string, rx *collectorRaw, want [][]byte) {
		if !waitFor(t, 5*time.Second, func() bool { return rx.count() == len(want) }) {
			t.Fatalf("%s: got %d datagrams, want %d", name, rx.count(), len(want))
		}
		rx.mu.Lock()
		defer rx.mu.Unlock()
		got := append([][]byte(nil), rx.pkts...)
		// UDP does not promise ordering even on loopback; compare as
		// multisets keyed by the (unique) fill byte.
		byFill := func(ps [][]byte) map[byte][]byte {
			m := make(map[byte][]byte, len(ps))
			for _, p := range ps {
				m[p[0]] = p
			}
			return m
		}
		gm, wm := byFill(got), byFill(want)
		for fill, w := range wm {
			g, ok := gm[fill]
			if !ok {
				t.Fatalf("%s: datagram %#x never arrived", name, fill)
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s: datagram %#x corrupted: len %d want %d", name, fill, len(g), len(w))
			}
		}
	}
	check("peer A", rxA, wantA)
	check("peer B", rxB, wantB)
}

type collectorRaw struct {
	mu   sync.Mutex
	pkts [][]byte
}

func (c *collectorRaw) add(p []byte) {
	c.mu.Lock()
	c.pkts = append(c.pkts, p)
	c.mu.Unlock()
}

func (c *collectorRaw) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pkts)
}

// TestLoopbackDeliveryWithPoisoning re-runs a full protocol exchange with
// poisoning forced on: it passes only if no layer above the transport
// retains receive buffers (the retention audit for conn/mux/rpc delivery
// paths, executed rather than asserted).
func TestLoopbackDeliveryWithPoisoning(t *testing.T) {
	old := poisonRecvBuffers
	poisonRecvBuffers = true
	defer func() { poisonRecvBuffers = old }()

	rx := &collector{}
	server, err := Listen("127.0.0.1:0", Config{OnMessage: rx.add})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddr().String(), Config{
		Streams: []StreamSpec{{ID: 1, Class: 3, Priority: 1, Rate: 1e6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	want := [][]byte{}
	for i := 0; i < 20; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 200)
		want = append(want, p)
		if ok, serr := client.Send(1, p); serr != nil || !ok {
			t.Fatal("send refused", serr)
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return rx.count() == len(want) }) {
		t.Fatalf("delivered %d messages, want %d", rx.count(), len(want))
	}
	rx.mu.Lock()
	defer rx.mu.Unlock()
	for i, m := range rx.msgs {
		if !bytes.Equal(m.Payload, want[m.Seq]) {
			t.Fatalf("message %d (seq %d) corrupted: a layer above the transport retained its recv buffer", i, m.Seq)
		}
	}
}
