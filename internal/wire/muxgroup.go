package wire

import (
	"fmt"
	"net"
)

// MuxGroup is the sharded server datapath: N muxes, each owning one
// shard's socket (SO_REUSEPORT) or demux queue (portable fallback), its
// own reader goroutine, pacers, band queues and buffer pools — no lock is
// shared between shards on the packet path. The kernel (or the demux
// hash) pins every peer to exactly one shard, so each peer's Conn lives
// in exactly one mux and the per-shard state needs no cross-shard
// synchronization at all.
type MuxGroup struct {
	muxes []*Mux
	demux *shardDemux // nil on the reuseport (socket-per-shard) path
}

// ListenMuxShards binds addr and serves peers across `shards` per-core
// shards. On Linux each shard gets its own SO_REUSEPORT socket and the
// kernel spreads flows across them; elsewhere a single socket feeds a
// hashing demux with one queue per shard. shards <= 1 (or a platform
// refusing reuseport with 1 shard requested) degenerates to a plain
// single-mux group.
func ListenMuxShards(addr string, shards int, configFor func(peer *net.UDPAddr) Config, opts ...MuxOption) (*MuxGroup, error) {
	if shards <= 1 {
		m, err := ListenMux(addr, configFor, opts...)
		if err != nil {
			return nil, err
		}
		return &MuxGroup{muxes: []*Mux{m}}, nil
	}
	if socks, err := listenReusePort(addr, shards); err == nil {
		g := &MuxGroup{muxes: make([]*Mux, 0, shards)}
		for _, sock := range socks {
			m, merr := ListenMuxVia(newUDPPacketConn(sock), configFor, opts...)
			if merr != nil {
				g.Close()
				for _, s := range socks[len(g.muxes):] {
					s.Close()
				}
				return nil, merr
			}
			g.muxes = append(g.muxes, m)
		}
		return g, nil
	}
	// Portable fallback: one socket, hashing demux.
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %q: %w", addr, err)
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	g, err := newDemuxGroup(newUDPPacketConn(sock), shards, configFor, opts...)
	if err != nil {
		sock.Close()
	}
	return g, err
}

// ListenMuxShardsVia serves a caller-supplied transport (a simulated
// endpoint) as a group of one shard: the transport has one delivery
// goroutine, a simulation has no cores to scale across, and the demux's
// queues and drain goroutines would break its deterministic event loop.
func ListenMuxShardsVia(pc PacketConn, configFor func(peer *net.UDPAddr) Config, opts ...MuxOption) (*MuxGroup, error) {
	m, err := ListenMuxVia(pc, configFor, opts...)
	if err != nil {
		return nil, err
	}
	return &MuxGroup{muxes: []*Mux{m}}, nil
}

func newDemuxGroup(pc PacketConn, shards int, configFor func(peer *net.UDPAddr) Config, opts ...MuxOption) (*MuxGroup, error) {
	d := newShardDemux(pc, shards)
	g := &MuxGroup{demux: d, muxes: make([]*Mux, 0, shards)}
	for _, sc := range d.shards {
		m, err := ListenMuxVia(sc, configFor, opts...)
		if err != nil {
			// Close what exists; closing every shard conn (muxed or not)
			// tears the demux and underlying transport down exactly once.
			g.Close()
			for _, rest := range d.shards[len(g.muxes):] {
				rest.Close()
			}
			return nil, err
		}
		g.muxes = append(g.muxes, m)
	}
	return g, nil
}

// Shards reports the number of shards (muxes) in the group.
func (g *MuxGroup) Shards() int { return len(g.muxes) }

// Muxes returns the per-shard muxes in shard order.
func (g *MuxGroup) Muxes() []*Mux { return g.muxes }

// ReusePort reports whether the group runs socket-per-shard (true) or
// over the hashing-demux fallback / a single mux (false).
func (g *MuxGroup) ReusePort() bool { return g.demux == nil && len(g.muxes) > 1 }

// LocalAddr reports the bound address (shared by every shard).
func (g *MuxGroup) LocalAddr() *net.UDPAddr {
	if len(g.muxes) == 0 {
		return nil
	}
	return g.muxes[0].LocalAddr()
}

// Conns snapshots the live peer connections across all shards.
func (g *MuxGroup) Conns() []*Conn {
	var out []*Conn
	for _, m := range g.muxes {
		out = append(out, m.Conns()...)
	}
	return out
}

// Close shuts every shard down. On the demux path the last shard's close
// tears down the shared socket and sweeps the queues.
func (g *MuxGroup) Close() error {
	var first error
	for _, m := range g.muxes {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
