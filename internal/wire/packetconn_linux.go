//go:build linux && (amd64 || arm64)

package wire

// Batched kernel receive: recvmmsg(2) moves a vector of datagrams per
// system call, and UDP GRO lets one of them carry a run of a peer's
// frames, so the per-packet cost of the read loop is not dominated by
// kernel entry. Implemented with the stdlib syscall package only (no new
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

// UDP generic receive offload: with the UDP_GRO sockopt set, the kernel
// coalesces back-to-back equal-size datagrams of one flow into a single
// large buffer handed up with one recvmsg, and a UDP_GRO control message
// carrying the segment size so userspace can re-split (linux 5.0+). One kernel entry then delivers up to 64 frames,
// which is where the batched recv leg's headroom beyond recvmmsg comes
// from. The cmsg payload is the kernel's `int gso_size` (4 bytes).
const (
	udpGRO = 104 // UDP_GRO sockopt / cmsg type (linux/udp.h)
	// groCtrlLen sizes the per-message control buffer: CmsgSpace(4) is 24
	// on 64-bit and UDP_GRO is the only cmsg this socket can receive.
	groCtrlLen = 64
)

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
	rc     syscall.RawConn
	gro    bool // UDP_GRO enabled on the socket at construction
	rhdrs  [ioBatch]mmsghdr
	riovs  [ioBatch]syscall.Iovec
	rsas   [ioBatch]syscall.RawSockaddrInet6
	rbufs  [ioBatch][]byte
	rctrl  [ioBatch][groCtrlLen]byte
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
	b := &batchIO{rc: rc}
	// Opt into GRO coalescing; a kernel that predates it (pre-5.0) refuses
	// the sockopt and the reader simply never sees a UDP_GRO cmsg.
	cerr := rc.Control(func(fd uintptr) {
		b.gro = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) == nil
	})
	if cerr != nil {
		b.gro = false
	}
	return b
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

// groSegSize extracts the UDP_GRO segment size from message i's control
// buffer, or 0 when the datagram was not coalesced. The walk is bounds-
// checked so a malformed control length can never read out of the buffer.
func (b *batchIO) groSegSize(i int) int {
	n := int(b.rhdrs[i].hdr.Controllen)
	if n > len(b.rctrl[i]) {
		n = len(b.rctrl[i])
	}
	ctrl := b.rctrl[i][:n]
	for len(ctrl) >= syscall.CmsgLen(0) {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
		l := int(h.Len)
		if l < syscall.CmsgLen(0) || l > len(ctrl) {
			return 0
		}
		if h.Level == syscall.IPPROTO_UDP && h.Type == udpGRO && l >= syscall.CmsgLen(4) {
			return int(*(*int32)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])))
		}
		adv := (l + 7) &^ 7 // CMSG_ALIGN on 64-bit
		if adv <= 0 || adv > len(ctrl) {
			return 0
		}
		ctrl = ctrl[adv:]
	}
	return 0
}

// readLoop drains the socket with recvmmsg until it is closed, delivering
// each datagram to recv. Packet buffers are loaned for the duration of the
// callback (and poisoned afterwards in debug builds); peer addresses come
// from the reader-owned cache, so the steady-state delivery path performs
// zero allocations. GRO-coalesced datagrams are re-split at the advertised
// segment size before delivery, so the callback sees exactly the frames
// the peer sent, each with the count of those still behind it in the batch.
func (b *batchIO) readLoop(recv func(pkt []byte, from *net.UDPAddr, backlog int)) {
	b.readInit()
	for b.readBatch(recv) {
	}
}

// readInit allocates everything the reader will ever need: the packet
// buffers, the address cache and the recvmmsg callback.
func (b *batchIO) readInit() {
	bufLen := recvBufLen
	if b.gro {
		// A coalesced GRO buffer holds up to a maximal UDP datagram.
		bufLen = groRecvBufLen
	}
	for i := range b.rbufs {
		b.rbufs[i] = make([]byte, bufLen)
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
	bufLen := len(b.rbufs[0])
	for i := range b.rhdrs {
		b.riovs[i] = syscall.Iovec{Base: &b.rbufs[i][0], Len: uint64(bufLen)}
		b.rhdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&b.rsas[i])),
			Namelen: uint32(unsafe.Sizeof(b.rsas[i])),
			Iov:     &b.riovs[i],
			Iovlen:  1,
		}}
		if b.gro {
			b.rhdrs[i].hdr.Control = &b.rctrl[i][0]
			b.rhdrs[i].hdr.SetControllen(groCtrlLen)
		}
	}
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
		n := int(b.rhdrs[i].n)
		if n > bufLen {
			n = bufLen
		}
		from := b.addrOf(&b.rsas[i])
		pkt := b.rbufs[i][:n]
		splitSegments(pkt, b.groSegSize(i), from, b.rgot-1-i, recv)
		PoisonBuf(pkt)
	}
	return true
}
