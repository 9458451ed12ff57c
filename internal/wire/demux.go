package wire

import (
	"net"
	"sync"
	"sync/atomic"
)

// shardDemux is the portable fallback for SO_REUSEPORT sharding: one
// underlying socket, one ingest path, and N shard transports each drained
// by its own goroutine. Peers are assigned to shards by address hash
// (ShardOfAddr), mirroring the kernel's flow hash, so each shard still
// owns a disjoint set of peers.
//
// Buffer ownership through the demux is explicit: ingest copies the
// loaned transport buffer into a pooled delivery buffer, hands it to the
// target shard's queue, and the shard's drain goroutine returns the
// buffer to the pool after the delivery callback returns (poisoning it
// first in debug builds, so a callback that retains the slice fails
// deterministically). A packet is therefore accounted exactly once:
// enqueued and later delivered, or dropped at ingest (queue full,
// oversized datagram), or swept at teardown: the counters below hold the
// conservation identity enqueued == delivered + sweep.
type shardDemux struct {
	pc     PacketConn
	shards []*demuxShard
	done   chan struct{}
	wg     sync.WaitGroup // drain goroutines

	started atomic.Int32 // shards that called Start; the last one starts pc
	open    atomic.Int32 // shards not yet closed; the last Close tears down

	enqueued        atomic.Int64
	delivered       atomic.Int64
	droppedFull     atomic.Int64
	droppedOversize atomic.Int64
	sweep           atomic.Int64
}

// demuxQueueLen bounds each shard's delivery queue: one slow shard drops
// its own packets instead of stalling ingest for the others.
const demuxQueueLen = 256

type demuxPkt struct {
	buf  *[]byte
	n    int
	from *net.UDPAddr
}

// demuxBufPool recycles delivery buffers flowing through shard queues.
var demuxBufPool = sync.Pool{New: func() any {
	b := make([]byte, recvBufLen)
	return &b
}}

type demuxShard struct {
	d      *shardDemux
	ch     chan demuxPkt
	recv   func(pkt []byte, from *net.UDPAddr, backlog int)
	closed atomic.Bool
}

// ShardOfAddr assigns a peer address to one of n shards by hashing its
// IP and port — the demux twin of the kernel's SO_REUSEPORT flow hash.
// The result is in [0, n) for every n, power of two or not. It allocates
// nothing for IPv4 and IPv6 addresses.
func ShardOfAddr(addr *net.UDPAddr, n int) int {
	if n <= 1 || addr == nil {
		return 0
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	ip := addr.IP
	if ip4 := ip.To4(); ip4 != nil {
		ip = ip4
	}
	for i := 0; i < len(ip); i++ {
		h ^= uint32(ip[i])
		h *= prime32
	}
	h ^= uint32(addr.Port) & 0xff
	h *= prime32
	h ^= uint32(addr.Port) >> 8
	h *= prime32
	return int(h % uint32(n))
}

// newShardDemux builds the demux with n shard transports over pc. The
// underlying transport is started only once every shard has installed its
// delivery callback (the Nth Start call), so no packet can arrive for a
// shard that is not ready to own it.
func newShardDemux(pc PacketConn, n int) *shardDemux {
	d := &shardDemux{pc: pc, done: make(chan struct{})}
	d.shards = make([]*demuxShard, n)
	for i := range d.shards {
		d.shards[i] = &demuxShard{d: d, ch: make(chan demuxPkt, demuxQueueLen)}
	}
	d.open.Store(int32(n))
	return d
}

// ingest is the underlying transport's delivery callback: copy into a
// pooled buffer, hash to a shard, enqueue. It allocates nothing in steady
// state and never blocks — a full shard queue sheds that packet alone. The
// ingest reader's backlog is not the shard's: a drain reports its own queue.
func (d *shardDemux) ingest(pkt []byte, from *net.UDPAddr, _ int) {
	if len(pkt) > recvBufLen {
		// Larger than a delivery buffer: could only be an oversized
		// non-protocol datagram (DecodeFrame would reject it anyway).
		d.droppedOversize.Add(1)
		return
	}
	s := d.shards[ShardOfAddr(from, len(d.shards))]
	buf := demuxBufPool.Get().(*[]byte)
	n := copy((*buf)[:len(pkt)], pkt)
	select {
	case s.ch <- demuxPkt{buf: buf, n: n, from: from}:
		d.enqueued.Add(1)
	default:
		demuxBufPool.Put(buf)
		d.droppedFull.Add(1)
	}
}

func (s *demuxShard) drain() {
	defer s.d.wg.Done()
	for {
		select {
		case p := <-s.ch:
			if s.recv != nil {
				s.recv((*p.buf)[:p.n], p.from, len(s.ch))
			}
			s.d.delivered.Add(1)
			PoisonBuf((*p.buf)[:p.n])
			demuxBufPool.Put(p.buf)
		case <-s.d.done:
			return
		}
	}
}

// demuxShard implements PacketConn over the shared underlying transport.

func (s *demuxShard) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	return s.d.pc.WriteToUDP(b, addr)
}

func (s *demuxShard) LocalAddr() net.Addr { return s.d.pc.LocalAddr() }

func (s *demuxShard) Start(recv func(pkt []byte, from *net.UDPAddr, backlog int)) {
	s.recv = recv
	s.d.wg.Add(1)
	go s.drain()
	if s.d.started.Add(1) == int32(len(s.d.shards)) {
		s.d.pc.Start(s.d.ingest)
	}
}

// Close marks this shard closed; the last shard out closes the underlying
// transport (joining its reader, so ingest cannot run again), stops every
// drain goroutine, and sweeps packets still queued — each one recycled and
// counted, keeping the conservation identity exact.
func (s *demuxShard) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.d.open.Add(-1) > 0 {
		return nil
	}
	err := s.d.pc.Close()
	close(s.d.done)
	s.d.wg.Wait()
	for _, sh := range s.d.shards {
		for drained := false; !drained; {
			select {
			case p := <-sh.ch:
				s.d.sweep.Add(1)
				demuxBufPool.Put(p.buf)
			default:
				drained = true
			}
		}
	}
	return err
}
