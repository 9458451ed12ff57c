//go:build linux && (amd64 || arm64)

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// udpSegment is the UDP_SEGMENT sockopt (linux/udp.h): every write on the
// socket leaves as one GSO burst cut into datagrams of this many bytes.
const udpSegment = 103

// delivery is one datagram as a reader's callback saw it, copied out of
// the loaned buffer.
type delivery struct {
	pkt  []byte
	from *net.UDPAddr
}

func nextDelivery(t *testing.T, got <-chan delivery) delivery {
	t.Helper()
	select {
	case d := <-got:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("datagram never delivered")
		return delivery{}
	}
}

// A peer that sends with UDP_SEGMENT hands the kernel one write that
// leaves as a burst of datagrams. The reader must deliver each of them
// whole, byte-exact and in order, as the separate frames the peer meant,
// with no mode of its own for coalesced bursts: without receive offload
// on the socket the kernel splits the burst before it is queued. A datagram
// larger than a receive buffer arrives clipped to it, and the clipped
// bytes still fail DecodeFrame rather than parse as a frame.
func TestGSOBurstArrivesWhole(t *testing.T) {
	sock, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	pc := newUDPPacketConn(sock)
	defer pc.Close()
	got := make(chan delivery, 8)
	pc.Start(func(pkt []byte, from *net.UDPAddr, _ int) {
		got <- delivery{bytes.Clone(pkt), from}
	})
	dst := pc.LocalAddr().(*net.UDPAddr)

	sender, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	rc, err := sender.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment, 600)
	}); err != nil || serr != nil {
		t.Skipf("kernel refuses UDP_SEGMENT: %v %v", err, serr)
	}

	sizes := []int{600, 600, 600, 600, 100}
	var burst []byte
	for i, n := range sizes {
		burst = append(burst, bytes.Repeat([]byte{byte(0xA0 + i)}, n)...)
	}
	if _, err := sender.WriteToUDP(burst, dst); err != nil {
		t.Skipf("kernel refuses a GSO write: %v", err)
	}
	off := 0
	for i, n := range sizes {
		d := nextDelivery(t, got)
		if !bytes.Equal(d.pkt, burst[off:off+n]) {
			t.Fatalf("delivery %d: %d bytes starting %#x, want %d bytes of %#x", i, len(d.pkt), d.pkt[:1], n, 0xA0+i)
		}
		if d.from.Port != sender.LocalAddr().(*net.UDPAddr).Port {
			t.Fatalf("delivery %d from %v, want %v", i, d.from, sender.LocalAddr())
		}
		off += n
	}
	select {
	case d := <-got:
		t.Fatalf("a sixth delivery of %d bytes", len(d.pkt))
	case <-time.After(50 * time.Millisecond):
	}

	// An oversized datagram from a plain socket: a data header whose
	// payload length claims everything after it.
	plain, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	big, err := AppendFrame(nil, Header{Type: TypeData, Stream: 1, Class: 1, Prio: 1, Seq: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	big = append(big, bytes.Repeat([]byte{0x3C}, 3000-len(big))...)
	binary.LittleEndian.PutUint16(big[HeaderLen-2:], uint16(3000-HeaderLen))
	if _, err := plain.WriteToUDP(big, dst); err != nil {
		t.Fatal(err)
	}
	d := nextDelivery(t, got)
	if len(d.pkt) == 0 || len(d.pkt) > recvBufLen || !bytes.Equal(d.pkt, big[:len(d.pkt)]) {
		t.Fatalf("a %d-byte datagram arrived as %d bytes, want a prefix of at most %d", len(big), len(d.pkt), recvBufLen)
	}
	if _, _, err := DecodeFrame(d.pkt); !errors.Is(err, ErrOversize) {
		t.Fatalf("DecodeFrame of the clipped datagram: %v, want ErrOversize", err)
	}
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A started socket reader holds one slab of ioBatch frame-sized buffers
// (128 KiB), not a 64 KiB buffer per message: eight readers, each past
// readInit, add at most 2 × ioBatch × recvBufLen apiece to the live heap.
func TestSocketReaderHeap(t *testing.T) {
	const readers = 8
	sender, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	got := make(chan struct{}, readers)
	before := heapInUse()
	pcs := make([]*udpPacketConn, readers)
	for i := range pcs {
		sock, err := listenLoopback()
		if err != nil {
			t.Fatal(err)
		}
		pcs[i] = newUDPPacketConn(sock)
		defer pcs[i].Close()
		pcs[i].Start(func([]byte, *net.UDPAddr, int) { got <- struct{}{} })
	}
	for _, pc := range pcs {
		if _, err := sender.WriteToUDP([]byte{1}, pc.LocalAddr().(*net.UDPAddr)); err != nil {
			t.Fatal(err)
		}
	}
	for range pcs {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("a reader never delivered")
		}
	}
	held := int64(heapInUse()) - int64(before)
	runtime.KeepAlive(pcs)
	t.Logf("%d readers hold %d KiB of heap, %d KiB each", readers, held>>10, held/readers>>10)
	if limit := int64(readers * 2 * ioBatch * recvBufLen); held > limit {
		t.Fatalf("%d readers hold %d KiB of heap, want at most %d KiB", readers, held>>10, limit>>10)
	}
}

// The reader builds its recvmmsg vector once, so each message's address
// length, which the kernel overwrites, is re-armed for the next call: a
// short one truncates the 28-byte IPv6 sockaddr. Two senders on [::1]
// feed batches of different fill, and every delivery must name its own
// sender.
func TestReadBatchAddressesEachSender(t *testing.T) {
	lo := &net.UDPAddr{IP: net.IPv6loopback}
	recvSock, err := net.ListenUDP("udp6", lo)
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	defer recvSock.Close()
	var senders [2]*net.UDPConn
	for i := range senders {
		if senders[i], err = net.ListenUDP("udp6", lo); err != nil {
			t.Fatal(err)
		}
		defer senders[i].Close()
	}
	b := newBatchIO(recvSock)
	if b == nil {
		t.Fatal("no batch I/O on a linux UDP socket")
	}
	b.readInit()
	dst := recvSock.LocalAddr().(*net.UDPAddr)
	for round, fill := range []int{1, 6, 2, ioBatch, 3, 1, 9} {
		for k := 0; k < fill; k++ {
			who := (round + k) % 2
			if _, err := senders[who].WriteToUDP([]byte{byte(who), byte(k)}, dst); err != nil {
				t.Fatal(err)
			}
		}
		seen := 0
		for seen < fill {
			clear(b.rsas[:]) // every address must come from this call's write
			if !b.readBatch(func(pkt []byte, from *net.UDPAddr, _ int) {
				want := senders[pkt[0]].LocalAddr().(*net.UDPAddr)
				if !from.IP.Equal(want.IP) || from.Port != want.Port {
					t.Errorf("round %d: datagram %d of sender %d from %v, want %v", round, pkt[1], pkt[0], from, want)
				}
				seen++
			}) {
				t.Fatal("readBatch: socket closed")
			}
		}
	}
}
