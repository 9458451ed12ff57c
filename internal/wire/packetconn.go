package wire

import (
	"net"
	"sync"
)

// PacketConn abstracts the datagram socket under a Conn or Mux so the
// identical protocol code runs over a real kernel UDP socket or the
// in-memory simulated network in internal/marsim. Implementations must be
// safe for concurrent WriteToUDP calls. A Conn writes one frame per
// WriteToUDP call.
type PacketConn interface {
	// WriteToUDP transmits one datagram to addr.
	WriteToUDP(b []byte, addr *net.UDPAddr) (int, error)
	// LocalAddr reports the bound local address.
	LocalAddr() net.Addr
	// Close releases the transport. After Close returns, the recv callback
	// installed by Start will not be invoked again.
	Close() error
	// Start installs the inbound delivery callback and begins delivery. It
	// must be called at most once. The callback may retain pkt only for the
	// duration of the call (the buffer is reused). It runs on whatever
	// goroutine read the datagram — a socket's reader, a simulation's event
	// loop — and every layer above handles the datagram there, so it must
	// not block. backlog is how many datagrams that reader already holds
	// behind this one (the rest of its recvmmsg batch); a transport that
	// reads one datagram at a time reports 0.
	Start(recv func(pkt []byte, from *net.UDPAddr, backlog int))
}

// recvBufLen sizes each receive buffer. The largest conforming ARTP frame
// is maxFrameLen (1351) bytes; 2048 leaves room to *observe* an oversized
// datagram (and reject it in DecodeFrame) instead of silently truncating
// it into something that might parse.
const recvBufLen = 2048

// poisonRecvBuffers, when true, overwrites every receive buffer with the
// poisonByte pattern after the delivery callback returns. The PacketConn
// contract says the callback may retain pkt only for the duration of the
// call; a caller that squirrels the slice away anyway appears to work —
// until the buffer is reused and its data mutates at a distance. Poisoning
// turns that latent corruption into an immediate, deterministic test
// failure (the retained bytes become 0xDB 0xDB ...). It defaults on under
// the race detector (debug builds, `make race`) and off in production
// builds; tests may flip it explicitly.
var poisonRecvBuffers = raceEnabled

const poisonByte = 0xDB

// PoisonBuf is what a PacketConn implementation calls on a receive buffer
// once its delivery callback has returned and before the buffer is reused
// (see poisonRecvBuffers); it is a no-op outside race-detector builds.
func PoisonBuf(b []byte) {
	if !poisonRecvBuffers {
		return
	}
	for i := range b {
		b[i] = poisonByte
	}
}

// udpPacketConn is the production PacketConn: a kernel UDP socket plus one
// reader goroutine. On Linux it reads in batches (recvmmsg into one slab
// of frame-sized buffers) through batchIO; elsewhere batchIO is absent
// and it reads one datagram per system call. It writes one datagram per system call everywhere.
type udpPacketConn struct {
	sock *net.UDPConn
	bio  *batchIO // nil when the platform has no batch receive
	wg   sync.WaitGroup
}

func newUDPPacketConn(sock *net.UDPConn) *udpPacketConn {
	return &udpPacketConn{sock: sock, bio: newBatchIO(sock)}
}

func (u *udpPacketConn) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	return u.sock.WriteToUDP(b, addr)
}

func (u *udpPacketConn) LocalAddr() net.Addr { return u.sock.LocalAddr() }

func (u *udpPacketConn) Start(recv func(pkt []byte, from *net.UDPAddr, backlog int)) {
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		if u.bio != nil {
			u.bio.readLoop(recv)
			return
		}
		buf := make([]byte, recvBufLen)
		for {
			n, raddr, err := u.sock.ReadFromUDP(buf)
			if err != nil {
				return // closed
			}
			recv(buf[:n], raddr, 0)
			PoisonBuf(buf[:n])
		}
	}()
}

func (u *udpPacketConn) Close() error {
	err := u.sock.Close()
	u.wg.Wait()
	return err
}
