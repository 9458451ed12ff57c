//go:build !(linux && (amd64 || arm64))

package wire

import "net"

// batchIO is the mmsg-based kernel fast path; platforms without audited
// sendmmsg/recvmmsg support have none, and the transport falls back to one
// system call per datagram (see packetconn.go).
type batchIO struct{}

func newBatchIO(*net.UDPConn) *batchIO { return nil }

func (*batchIO) writeBatch(dgs []Datagram) (int, error) { return 0, nil }

func (*batchIO) readLoop(func(pkt []byte, from *net.UDPAddr, backlog int)) {}
