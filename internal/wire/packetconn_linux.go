//go:build linux && (amd64 || arm64)

package wire

// Batched kernel I/O: sendmmsg(2) and recvmmsg(2) move a vector of
// datagrams per system call, which is where the syscall-bound half of the
// wire fast path comes from — the per-packet cost of the classic
// write/read loop is dominated by kernel entry, not by copying 1.2 kB.
// Implemented with the stdlib syscall package only (no new dependencies)
// via net.UDPConn.SyscallConn, whose Read/Write callbacks park the
// goroutine in the runtime poller on EAGAIN, so the socket stays in
// non-blocking mode and integrates with the scheduler exactly like the
// stdlib's own I/O.
//
// The file is gated to 64-bit Linux: struct mmsghdr's layout (msghdr,
// 4-byte msg_len, 4 bytes of tail padding) is spelled out below and only
// audited for amd64/arm64. Every other platform takes the portable
// one-datagram-per-call path, which is semantically identical.

import (
	"net"
	"sync"
	"syscall"
	"unsafe"
)

// ioBatch is the mmsg vector width: how many datagrams one recvmmsg or
// sendmmsg call can move. It matches MaxBatchFrames so a full sender burst
// fits one syscall, and gives the receive side the same headroom to drain
// bursts from several senders in one call.
const ioBatch = 64

// UDP generalized segmentation offload: a run of equal-size datagrams to
// one destination can leave as a single sendmsg whose payload the kernel
// splits into individual datagrams (UDP_SEGMENT, Linux 4.18+). One pass
// down the stack for the whole run beats even sendmmsg, which still pays
// the full per-datagram protocol cost — measured on loopback, the per-
// packet send floor drops from ~1.6us (sendmmsg) to ~0.3us (GSO).
const (
	udpSegment = 103 // UDP_SEGMENT cmsg type / sockopt (linux/udp.h)
	// gsoMaxSegs is the kernel's UDP_MAX_SEGMENTS.
	gsoMaxSegs = 64
	// gsoMaxBytes bounds the coalesced payload to one maximal UDP datagram.
	gsoMaxBytes = 65507
	// gsoMinSegs is the shortest run worth a dedicated sendmsg: below it
	// the plain sendmmsg vector is no worse.
	gsoMinSegs = 2
)

// UDP generic receive offload: the recv twin of GSO. With the UDP_GRO
// sockopt set, the kernel coalesces back-to-back equal-size datagrams of
// one flow into a single large buffer handed up with one recvmsg, and a
// UDP_GRO control message carrying the segment size so userspace can
// re-split (linux 5.0+). One kernel entry then delivers up to 64 frames,
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

// batchIO owns the scratch vectors for mmsg calls on one socket. Write
// scratch is guarded by wmu (WriteBatch may be called concurrently);
// read scratch is owned by the single reader goroutine.
type batchIO struct {
	rc syscall.RawConn
	// sock is the owning stdlib socket, used for the rare datagram whose
	// address putSockaddr cannot encode (zoned IPv6 link-local).
	sock *net.UDPConn

	wmu   sync.Mutex
	gso   bool // UDP_SEGMENT accepted so far; cleared on first refusal
	whdrs [ioBatch]mmsghdr
	wiovs [ioBatch]syscall.Iovec
	wsas  [ioBatch]syscall.RawSockaddrInet6
	wcmsg [32]byte // one UDP_SEGMENT cmsg (CmsgSpace(2) <= 32 on 64-bit)

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
	b := &batchIO{rc: rc, sock: sock, gso: true}
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

// putSockaddr encodes addr into sa, returning the kernel namelen. ok is
// false for addresses the raw path does not handle (zoned IPv6 link-local);
// the caller falls back to WriteToUDP for those.
func putSockaddr(sa *syscall.RawSockaddrInet6, addr *net.UDPAddr) (namelen uint32, ok bool) {
	if addr == nil {
		return 0, false
	}
	port := uint16(addr.Port)
	if ip4 := addr.IP.To4(); ip4 != nil {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		sa4.Port = port<<8 | port>>8 // htons
		copy(sa4.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4, true
	}
	ip16 := addr.IP.To16()
	if ip16 == nil || addr.Zone != "" {
		return 0, false
	}
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	sa.Port = port<<8 | port>>8 // htons
	copy(sa.Addr[:], ip16)
	return syscall.SizeofSockaddrInet6, true
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

// sameUDPAddr reports whether two destination addresses are the same
// endpoint. The pointer fast path is the common case: a Conn burst reuses
// one peer address for every frame.
func sameUDPAddr(a, b *net.UDPAddr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.Port == b.Port && a.Zone == b.Zone && a.IP.Equal(b.IP)
}

// gsoRun reports how many datagrams at the head of dgs can leave as one
// GSO send: same destination, every frame the same size (only the last
// may be shorter), within the kernel's segment-count and total-size
// limits. Returns 0 when GSO is off or the run is too short to beat the
// sendmmsg vector.
func (b *batchIO) gsoRun(dgs []Datagram) int {
	if !b.gso || len(dgs) < gsoMinSegs {
		return 0
	}
	size := len(dgs[0].B)
	if size == 0 || dgs[0].Addr == nil {
		return 0
	}
	total := size
	run := 1
	for run < len(dgs) && run < gsoMaxSegs {
		d := &dgs[run]
		if len(d.B) == 0 || len(d.B) > size || total+len(d.B) > gsoMaxBytes ||
			!sameUDPAddr(d.Addr, dgs[0].Addr) {
			break
		}
		total += len(d.B)
		run++
		if len(d.B) < size {
			break // a short segment is only valid in last position
		}
	}
	if run < gsoMinSegs {
		return 0
	}
	return run
}

// writeGSO sends dgs (a run validated by gsoRun) as one sendmsg carrying a
// UDP_SEGMENT control message: the frames are scatter-gathered by iovec —
// never copied — and the kernel re-splits them at segment-size boundaries.
// A kernel that refuses the cmsg flips b.gso off and the caller retries
// the run on the sendmmsg path, so nothing is lost on old kernels.
func (b *batchIO) writeGSO(dgs []Datagram) (bool, error) {
	namelen, ok := putSockaddr(&b.wsas[0], dgs[0].Addr)
	if !ok {
		return false, nil // zoned v6 etc.: let the fallback paths sort it
	}
	total := 0
	for i := range dgs {
		b.wiovs[i] = syscall.Iovec{Base: &dgs[i].B[0], Len: uint64(len(dgs[i].B))}
		total += len(dgs[i].B)
	}
	cmsg := (*syscall.Cmsghdr)(unsafe.Pointer(&b.wcmsg[0]))
	cmsg.Level = syscall.IPPROTO_UDP
	cmsg.Type = udpSegment
	cmsg.SetLen(syscall.CmsgLen(2))
	*(*uint16)(unsafe.Pointer(&b.wcmsg[syscall.CmsgLen(0)])) = uint16(len(dgs[0].B))
	hdr := syscall.Msghdr{
		Name:    (*byte)(unsafe.Pointer(&b.wsas[0])),
		Namelen: namelen,
		Iov:     &b.wiovs[0],
		Control: &b.wcmsg[0],
	}
	hdr.Iovlen = uint64(len(dgs))
	hdr.SetControllen(syscall.CmsgSpace(2))
	var wrote int
	var errno syscall.Errno
	werr := b.rc.Write(func(fd uintptr) bool {
		for {
			r1, _, e := syscall.Syscall(syscall.SYS_SENDMSG,
				fd, uintptr(unsafe.Pointer(&hdr)), 0)
			if e == syscall.EINTR {
				continue // interrupted before sending anything: retry
			}
			if e == syscall.EAGAIN {
				return false // park in the poller until writable
			}
			wrote, errno = int(r1), e
			return true
		}
	})
	if werr != nil {
		return false, werr
	}
	switch errno {
	case 0:
	case syscall.EINVAL, syscall.EOPNOTSUPP:
		b.gso = false // kernel predates UDP_SEGMENT; permanent for this socket
		return false, nil
	default:
		return false, errno
	}
	if wrote != total {
		return false, syscall.EIO
	}
	return true, nil
}

// writeBatch transmits dgs with as few kernel entries as possible:
// equal-size same-peer runs leave as single GSO sends, the rest ride
// sendmmsg vectors. Datagrams whose address the raw path cannot encode
// are sent via the stdlib write in order, so ordering is preserved in
// every mix.
func (b *batchIO) writeBatch(dgs []Datagram) (int, error) {
	b.wmu.Lock()
	defer b.wmu.Unlock()
	sent := 0
	for sent < len(dgs) {
		if run := b.gsoRun(dgs[sent:]); run > 0 {
			ok, err := b.writeGSO(dgs[sent : sent+run])
			if err != nil {
				return sent, err
			}
			if ok {
				sent += run
				continue
			}
			// GSO refused: fall through and move the run by sendmmsg.
		}
		n := 0
		for n < ioBatch && sent+n < len(dgs) {
			if n > 0 && b.gsoRun(dgs[sent+n:]) > 0 {
				break // flush the vector, then let GSO take the run
			}
			d := &dgs[sent+n]
			namelen, ok := putSockaddr(&b.wsas[n], d.Addr)
			if !ok || len(d.B) == 0 {
				break // flush what we have, then handle this one alone
			}
			b.wiovs[n] = syscall.Iovec{Base: &d.B[0], Len: uint64(len(d.B))}
			b.whdrs[n] = mmsghdr{hdr: syscall.Msghdr{
				Name:    (*byte)(unsafe.Pointer(&b.wsas[n])),
				Namelen: namelen,
				Iov:     &b.wiovs[n],
				Iovlen:  1,
			}}
			n++
		}
		if n == 0 {
			// Head of the remainder is un-encodable (zoned v6 etc.): send it
			// through the owning stdlib socket, which handles every address
			// form the raw path cannot.
			if _, err := b.sock.WriteToUDP(dgs[sent].B, dgs[sent].Addr); err != nil {
				return sent, err
			}
			sent++
			continue
		}
		for n > 0 {
			var wrote int
			var errno syscall.Errno
			werr := b.rc.Write(func(fd uintptr) bool {
				for {
					r1, _, e := syscall.Syscall6(sysSENDMMSG,
						fd, uintptr(unsafe.Pointer(&b.whdrs[0])), uintptr(n), 0, 0, 0)
					if e == syscall.EINTR {
						continue // interrupted before sending anything: retry
					}
					if e == syscall.EAGAIN {
						return false // park in the poller until writable
					}
					wrote, errno = int(r1), e
					return true
				}
			})
			if werr != nil {
				return sent, werr
			}
			if errno != 0 {
				return sent, errno
			}
			if wrote <= 0 {
				return sent, syscall.EIO
			}
			sent += wrote
			// A short sendmmsg accepted a prefix; shift and retry the rest
			// so a short count never reaches the caller without an error.
			copy(b.whdrs[:], b.whdrs[wrote:n])
			n -= wrote
		}
	}
	return sent, nil
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
