//go:build !(linux && (amd64 || arm64))

package wire

import "net"

// batchIO is the recvmmsg-based kernel receive path; platforms without
// audited recvmmsg support have none, and the transport falls back to one
// system call per datagram (see packetconn.go).
type batchIO struct{}

func newBatchIO(*net.UDPConn) *batchIO { return nil }

func (*batchIO) readLoop(func(pkt []byte, from *net.UDPAddr, backlog int)) {}
