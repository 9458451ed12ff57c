//go:build linux && (amd64 || arm64)

package wire

import (
	"bytes"
	"net"
	"slices"
	"testing"
)

// Regression pin for the recv loop over a real loopback socket, per batch:
// one recvmmsg, the address-cache lookups and the in-place AEAD open of
// every frame in it must allocate nothing. (The loop used to allocate its
// RawConn.Read closure and the two variables it captured on every recvmmsg,
// so the cost per packet was 2 / batch fill and depended on the host.) The
// test drives readBatch itself instead of starting the reader goroutine, so
// AllocsPerRun measures the receive leg alone: the sends inside a run go
// through the netip path of the standard library, which does not allocate.
func TestRecvLoopAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under -race")
	}
	sl, err := newSealer(benchKey)
	if err != nil {
		t.Fatal(err)
	}
	recvSock, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer recvSock.Close()
	sendSock, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer sendSock.Close()
	b := newBatchIO(recvSock)
	if b == nil {
		t.Fatal("no batch I/O on a linux UDP socket")
	}
	b.readInit()

	frame, err := sl.appendSealedFrame(nil, Header{Type: TypeData, Stream: 1, Class: 1, Prio: 1, Seq: 1}, bytes.Repeat([]byte{0xE7}, 1000))
	if err != nil {
		t.Fatal(err)
	}
	var delivered, failed int
	recv := func(pkt []byte, _ *net.UDPAddr, _ int) {
		hdr, payload, err := DecodeFrame(pkt)
		if err == nil {
			_, err = sl.openInPlace(hdr, payload)
		}
		if err != nil {
			failed++
			return
		}
		delivered++
	}
	dst := recvSock.LocalAddr().(*net.UDPAddr).AddrPort()
	const perBatch = 8
	sent := 0
	batch := func() {
		for i := 0; i < perBatch; i++ {
			if _, err := sendSock.WriteToUDPAddrPort(frame, dst); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		// Loopback queues a datagram on the receiving socket before the
		// send returns, so the batch is there to read.
		if !b.readBatch(recv) {
			t.Fatal("readBatch: socket closed")
		}
	}
	batch() // warm the AAD pool and the address cache off the record
	if allocs := testing.AllocsPerRun(200, batch); allocs != 0 {
		t.Fatalf("recv loop: %.2f allocs per batch of %d, want 0", allocs, perBatch)
	}
	for delivered+failed < sent { // a straggler, should the kernel ever defer one
		if !b.readBatch(recv) {
			t.Fatal("readBatch: socket closed")
		}
	}
	if failed > 0 || delivered != sent {
		t.Fatalf("delivered %d of %d frames, %d failed to open", delivered, sent, failed)
	}
}

// Every datagram of a recvmmsg batch is delivered with the count still
// behind it, and the last with 0.
func TestReadBatchReportsBacklog(t *testing.T) {
	recvSock, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer recvSock.Close()
	sendSock, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer sendSock.Close()
	b := newBatchIO(recvSock)
	if b == nil {
		t.Fatal("no batch I/O on a linux UDP socket")
	}
	b.readInit()
	dst := recvSock.LocalAddr().(*net.UDPAddr).AddrPort()
	for i := 0; i < 4; i++ {
		if _, err := sendSock.WriteToUDPAddrPort(bytes.Repeat([]byte{byte(i)}, 200), dst); err != nil {
			t.Fatal(err)
		}
	}
	var backlogs []int
	if !b.readBatch(func(_ []byte, _ *net.UDPAddr, backlog int) { backlogs = append(backlogs, backlog) }) {
		t.Fatal("readBatch: socket closed")
	}
	if want := []int{3, 2, 1, 0}; !slices.Equal(backlogs, want) {
		t.Fatalf("backlogs %v, want %v", backlogs, want)
	}
}
