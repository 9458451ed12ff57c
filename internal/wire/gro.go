package wire

import "net"

// groRecvBufLen sizes receive buffers on sockets with UDP_GRO enabled: a
// coalesced delivery can be as large as one maximal UDP datagram, so the
// 2048-byte single-frame buffer no longer suffices. Defined here (not in
// the linux file) because the demux and the fuzzers reason about the same
// bound on every platform.
const groRecvBufLen = 1 << 16

// splitSegments re-splits a GRO-coalesced datagram at segSize boundaries
// and delivers each segment to recv with the shared peer address: every
// segment is segSize bytes except the last, which may be shorter — the
// exact inverse of the GSO send layout. A non-positive segSize or one
// that covers the whole packet delivers pkt unsplit. backlog is how many
// datagrams follow pkt in the reader's batch; each segment is delivered
// with that plus the segments still behind it. Returns the number of
// deliveries. The function is pure over (pkt, segSize) and shared by the
// linux readLoop and FuzzShardDemux, so the kernel-facing boundary math is
// the same code the fuzzer hammers.
func splitSegments(pkt []byte, segSize int, from *net.UDPAddr, backlog int, recv func(pkt []byte, from *net.UDPAddr, backlog int)) int {
	if segSize <= 0 || segSize >= len(pkt) {
		recv(pkt, from, backlog)
		return 1
	}
	segs := (len(pkt) + segSize - 1) / segSize
	for i := 0; i < segs; i++ {
		off := i * segSize
		end := min(off+segSize, len(pkt))
		recv(pkt[off:end], from, backlog+segs-1-i)
	}
	return segs
}
