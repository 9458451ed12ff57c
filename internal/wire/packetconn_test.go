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
		// Message k's payload is k+1 repeated.
		if k := int(m.Payload[0]) - 1; k < 0 || k >= len(want) || !bytes.Equal(m.Payload, want[k]) {
			t.Fatalf("message %d corrupted: a layer above the transport retained its recv buffer", i)
		}
	}
}
