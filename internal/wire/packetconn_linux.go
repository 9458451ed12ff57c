//go:build linux && (amd64 || arm64)

package wire

// Batched kernel receive: recvmmsg(2) moves a vector of datagrams per
// system call, so the per-packet cost of the read loop is not dominated by
// kernel entry. Each datagram lands in a frame-sized buffer of one slab
// per socket. The socket does not opt into generic receive offload: no
// sender in the tree writes a coalescible burst, and without the sockopt
// the kernel splits a peer's GSO burst into its datagrams before they are
// queued. Implemented with the stdlib syscall package only (no new
// dependencies) via net.UDPConn.SyscallConn, whose Read callback parks the
// goroutine in the runtime poller on EAGAIN, so the socket stays in
// non-blocking mode and integrates with the scheduler exactly like the
// stdlib's own I/O. Sends are one WriteToUDP per frame on every platform.
//
// The file is gated to 64-bit Linux: struct mmsghdr's layout (msghdr,
// 4-byte msg_len, 4 bytes of tail padding) is spelled out below and only
// audited for amd64/arm64. Every other platform takes the portable
// one-datagram-per-call read, which is semantically identical.

import (
	"net"
	"syscall"
	"unsafe"
)

// ioBatch is the mmsg vector width: how many datagrams one recvmmsg call
// can move, headroom to drain bursts from several senders in one call.
const ioBatch = 64

// addrCacheMax bounds the reader's peer-address cache. When it fills, the
// map is cleared and rebuilt — previously returned *net.UDPAddr values
// stay valid because they are immutable once handed out.
const addrCacheMax = 8192

// addrKey is the fixed-size, comparable form of a kernel sockaddr, so the
// reader can look up a cached *net.UDPAddr without allocating.
type addrKey struct {
	fam  uint8
	port uint16 // network byte order, exactly as the kernel filled it
	ip   [16]byte
}

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit targets.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// batchIO owns the scratch vectors for recvmmsg calls on one socket; they
// belong to the single reader goroutine.
type batchIO struct {
	rc    syscall.RawConn
	rhdrs [ioBatch]mmsghdr
	riovs [ioBatch]syscall.Iovec
	rsas  [ioBatch]syscall.RawSockaddrInet6
	// slab holds the packet buffers: message i reads into the recvBufLen
	// bytes at i*recvBufLen.
	slab   []byte
	acache map[addrKey]*net.UDPAddr // owned by the reader goroutine
	// recvFn is the RawConn.Read callback and rgot/rerrno its results. They
	// live here, not in readBatch, so the closure and what it captures are
	// allocated once per socket instead of once per recvmmsg.
	recvFn func(fd uintptr) bool
	rgot   int
	rerrno syscall.Errno
}

func newBatchIO(sock *net.UDPConn) *batchIO {
	rc, err := sock.SyscallConn()
	if err != nil {
		return nil
	}
	return &batchIO{rc: rc}
}

// sockaddrFromRaw decodes a kernel-filled sockaddr into a fresh UDPAddr.
// Fresh because the protocol retains peer addresses (conn.peer, mux keys)
// beyond the delivery call — only the packet buffer is loaned.
func sockaddrFromRaw(sa *syscall.RawSockaddrInet6) *net.UDPAddr {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return &net.UDPAddr{
			IP:   net.IPv4(sa4.Addr[0], sa4.Addr[1], sa4.Addr[2], sa4.Addr[3]),
			Port: int(sa4.Port<<8 | sa4.Port>>8),
		}
	case syscall.AF_INET6:
		ip := make(net.IP, net.IPv6len)
		copy(ip, sa.Addr[:])
		return &net.UDPAddr{IP: ip, Port: int(sa.Port<<8 | sa.Port>>8)}
	}
	return nil
}

// addrOf resolves a kernel-filled sockaddr to a *net.UDPAddr through the
// reader-owned cache: the first packet from a peer allocates its address,
// every later packet reuses the same pointer. Callers retain peer
// addresses (conn.peer, mux keys), which is safe precisely because a
// handed-out UDPAddr is never mutated — cache eviction only drops the
// map's reference, never the address itself.
func (b *batchIO) addrOf(sa *syscall.RawSockaddrInet6) *net.UDPAddr {
	var k addrKey
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		k.fam = 4
		k.port = sa4.Port
		copy(k.ip[:4], sa4.Addr[:])
	case syscall.AF_INET6:
		k.fam = 6
		k.port = sa.Port
		k.ip = sa.Addr
	default:
		return nil
	}
	if a, ok := b.acache[k]; ok {
		return a
	}
	a := sockaddrFromRaw(sa)
	if len(b.acache) >= addrCacheMax {
		clear(b.acache)
	}
	b.acache[k] = a
	return a
}

// readLoop drains the socket with recvmmsg until it is closed, delivering
// each datagram to recv with the count of those still behind it in the
// batch. Packet buffers are loaned for the duration of the callback (and
// poisoned afterwards in debug builds); peer addresses come from the
// reader-owned cache, so the steady-state delivery path performs zero
// allocations.
func (b *batchIO) readLoop(recv func(pkt []byte, from *net.UDPAddr, backlog int)) {
	b.readInit()
	for b.readBatch(recv) {
	}
}

// readInit allocates everything the reader will ever need — the packet
// slab, the address cache and the recvmmsg callback — and builds the
// recvmmsg vector, which then lives as long as the socket.
func (b *batchIO) readInit() {
	b.slab = make([]byte, ioBatch*recvBufLen)
	for i := range b.rhdrs {
		b.riovs[i] = syscall.Iovec{Base: &b.slab[i*recvBufLen], Len: recvBufLen}
		b.rhdrs[i].hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&b.rsas[i])),
			Namelen: uint32(unsafe.Sizeof(b.rsas[i])),
			Iov:     &b.riovs[i],
			Iovlen:  1,
		}
	}
	b.acache = make(map[addrKey]*net.UDPAddr)
	b.recvFn = func(fd uintptr) bool {
		for {
			r1, _, e := syscall.Syscall6(sysRECVMMSG,
				fd, uintptr(unsafe.Pointer(&b.rhdrs[0])), ioBatch, 0, 0, 0)
			if e == syscall.EINTR {
				continue // signal delivery / async preemption: retry
			}
			if e == syscall.EAGAIN {
				return false // park in the poller until readable
			}
			b.rgot, b.rerrno = int(r1), e
			return true
		}
	}
}

// readBatch moves one recvmmsg vector from the socket to recv, blocking
// until at least one datagram is there. It reports false once the socket
// is gone.
func (b *batchIO) readBatch(recv func(pkt []byte, from *net.UDPAddr, backlog int)) bool {
	if err := b.rc.Read(b.recvFn); err != nil {
		return false // RawConn.Read fails only when the socket is closed
	}
	switch b.rerrno {
	case 0:
	case syscall.ENOMEM, syscall.ENOBUFS:
		return true // transient kernel memory pressure: keep the reader alive
	default:
		return false // unrecoverable (EBADF-class): the socket is gone
	}
	if b.rgot <= 0 {
		return false
	}
	for i := 0; i < b.rgot; i++ {
		// The kernel clips a datagram to its iovec; the min only guards
		// the slice. msg_namelen is value-result: re-arm it for the next
		// call.
		off := i * recvBufLen
		pkt := b.slab[off : off+min(int(b.rhdrs[i].n), recvBufLen) : off+recvBufLen]
		recv(pkt, b.addrOf(&b.rsas[i]), b.rgot-1-i)
		PoisonBuf(pkt)
		b.rhdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(b.rsas[i]))
	}
	return true
}
