package wire

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"marnet/internal/faults"
)

// benchKey seals every frame the benchmarks, allocation pins and fuzzers
// build: the cost that matters is the sealed pipeline Section VI-G
// requires, not the plaintext shortcut.
var benchKey = []byte("0123456789abcdef")

func listenLoopback() (*net.UDPConn, error) {
	return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
}

// sameHeader is == for headers, which stopped being comparable when they
// gained the acknowledgement block.
func sameHeader(a, b Header) bool {
	blockA, blockB := a.Acks, b.Acks
	a.Acks, b.Acks = nil, nil
	return reflect.DeepEqual(a, b) && bytes.Equal(blockA, blockB)
}

// wireLenSealed is the on-the-wire size of one sealed frame.
func wireLenSealed(payloadLen int) int { return HeaderLen + sealedOver + payloadLen }

// lossyRelay stands a relay in front of upstream that, in each direction,
// drops every dropEvery-th datagram and holds the rest for delay.
func lossyRelay(t *testing.T, upstream string, dropEvery int, delay time.Duration) *faults.Relay {
	t.Helper()
	dir := faults.DirConfig{DropEvery: dropEvery, Delay: delay}
	relay, err := faults.NewRelay(upstream, faults.Config{Up: dir, Down: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	return relay
}
