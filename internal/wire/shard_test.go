package wire

import (
	"net"
	"testing"
	"time"
)

// dialShardClients dials n clients against the group, sends perClient
// messages from each, and waits until every message is delivered.
func dialShardClients(t *testing.T, g *MuxGroup, rx *muxCollector, n, perClient int) []*Conn {
	t.Helper()
	var clients []*Conn
	for i := 0; i < n; i++ {
		cl, err := Dial(g.LocalAddr().String(), Config{
			Streams: clientStreams(), StartBudget: 10e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		clients = append(clients, cl)
	}
	for i := 0; i < perClient; i++ {
		for _, cl := range clients {
			if _, err := cl.Send(1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ok := waitFor(t, 10*time.Second, func() bool {
		for _, cl := range clients {
			if rx.count(cl.LocalAddr()) < perClient {
				return false
			}
		}
		return true
	})
	if !ok {
		for _, cl := range clients {
			t.Logf("peer %s: %d/%d", cl.LocalAddr(), rx.count(cl.LocalAddr()), perClient)
		}
		t.Fatal("not all clients fully delivered")
	}
	return clients
}

// shardSpread returns per-shard connection counts and how many shards own
// at least one peer.
func shardSpread(g *MuxGroup) (counts []int, nonEmpty, total int) {
	counts = make([]int, g.Shards())
	for i, m := range g.Muxes() {
		counts[i] = len(m.Conns())
		total += counts[i]
		if counts[i] > 0 {
			nonEmpty++
		}
	}
	return counts, nonEmpty, total
}

// The socket-per-shard path: the kernel's SO_REUSEPORT flow hash must
// spread distinct client 4-tuples across shards, every peer must be owned
// by exactly one shard (sum of per-shard conns == clients), and all
// traffic must be served. Skipped where reuseport is unavailable — the
// demux fallback test below covers those platforms.
func TestMuxGroupReusePortSpread(t *testing.T) {
	const shards, clients, perClient = 4, 16, 10
	rx := newMuxCollector()
	g, err := ListenMuxShards("127.0.0.1:0", shards, func(peer *net.UDPAddr) Config {
		return Config{OnMessage: rx.handlerFor(peer)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if !g.ReusePort() {
		t.Skip("SO_REUSEPORT unavailable on this platform; demux fallback covered separately")
	}
	if g.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", g.Shards(), shards)
	}

	dialShardClients(t, g, rx, clients, perClient)

	counts, nonEmpty, total := shardSpread(g)
	t.Logf("reuseport shard spread: %v", counts)
	if total != clients {
		t.Fatalf("peers owned across shards = %d, want %d (no peer may be lost or double-owned)", total, clients)
	}
	if nonEmpty < 2 {
		t.Fatalf("kernel hashed all %d clients to one shard: %v", clients, counts)
	}
	accepted := 0
	for _, m := range g.Muxes() {
		accepted += len(m.Conns())
	}
	if accepted != clients {
		t.Fatalf("accepted=%d, want %d", accepted, clients)
	}
}

// The portable fallback path: one socket feeding the hashing demux, built
// directly because on Linux ListenMuxShards reaches it only when
// SO_REUSEPORT fails. The same ownership and delivery properties must
// hold, and the demux's packet-conservation identity must balance —
// everything enqueued is delivered (nothing stuck, nothing dropped) once
// traffic quiesces.
func TestMuxGroupDemuxFallback(t *testing.T) {
	const shards, clients, perClient = 4, 12, 10
	rx := newMuxCollector()
	sock, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	g, err := newDemuxGroup(newUDPPacketConn(sock), shards, func(peer *net.UDPAddr) Config {
		return Config{OnMessage: rx.handlerFor(peer)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.ReusePort() {
		t.Fatal("the demux group must not report reuseport")
	}
	if g.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", g.Shards(), shards)
	}

	dialShardClients(t, g, rx, clients, perClient)

	counts, nonEmpty, total := shardSpread(g)
	t.Logf("demux shard spread: %v", counts)
	if total != clients {
		t.Fatalf("peers owned across shards = %d, want %d", total, clients)
	}
	if nonEmpty < 2 {
		t.Fatalf("address hash put all %d clients on one shard: %v", clients, counts)
	}
	if !waitFor(t, 5*time.Second, func() bool {
		st := g.demux.Stats()
		return st.Delivered == st.Enqueued
	}) {
		t.Fatalf("demux queues never drained: %+v", g.demux.Stats())
	}
	st := g.demux.Stats()
	if st.Enqueued == 0 || st.DroppedOversize != 0 {
		t.Fatalf("demux accounting off: %+v", st)
	}
	if st.Enqueued != st.Delivered+st.DroppedFull {
		t.Fatalf("conservation violated before teardown: %+v", st)
	}
}

// A single-shard request collapses to a plain mux with no demux or extra
// sockets — the degenerate case the simulator and small deployments use.
func TestMuxGroupSingleShardCollapse(t *testing.T) {
	rx := newMuxCollector()
	g, err := ListenMuxShards("127.0.0.1:0", 1, func(peer *net.UDPAddr) Config {
		return Config{OnMessage: rx.handlerFor(peer)}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Shards() != 1 || g.ReusePort() {
		t.Fatalf("Shards()=%d ReusePort()=%v, want 1/false", g.Shards(), g.ReusePort())
	}
	dialShardClients(t, g, rx, 3, 5)
	if len(g.Conns()) != 3 {
		t.Fatalf("Conns() = %d, want 3", len(g.Conns()))
	}
}

// Shard assignment must be a pure function of (address, shard count): the
// same peer always lands on the same shard, every result is a valid shard
// index — for shard counts that are not powers of two as well — and a
// realistic peer population reaches every shard.
func TestShardOfStable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		seen := make(map[int]bool)
		for i := 0; i < 4096; i++ {
			addr := &net.UDPAddr{IP: net.IPv4(10, 0, byte(i%256), byte((i*7)%256)), Port: 10000 + i}
			a, b := ShardOfAddr(addr, n), ShardOfAddr(addr, n)
			if a != b {
				t.Fatalf("ShardOfAddr(%v,%d) unstable: %d then %d", addr, n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("ShardOfAddr(%v,%d) = %d out of range", addr, n, a)
			}
			seen[a] = true
		}
		if len(seen) != n {
			t.Fatalf("n=%d: 4096 peers reached %d shards", n, len(seen))
		}
	}
}

func TestShardOfAddrSpread(t *testing.T) {
	const n = 4
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		a := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 20000 + i}
		s := ShardOfAddr(a, n)
		if s < 0 || s >= n {
			t.Fatalf("shard %d out of range", s)
		}
		if s != ShardOfAddr(a, n) {
			t.Fatal("ShardOfAddr unstable")
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatal("64 distinct ports all hashed to one shard")
	}
	// IPv4 and its v4-in-v6 mapped form are the same peer and must land
	// on the same shard.
	a4 := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 7).To4(), Port: 443}
	a16 := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 7).To16(), Port: 443}
	if ShardOfAddr(a4, n) != ShardOfAddr(a16, n) {
		t.Fatal("v4 and v4-mapped-v6 forms of one address hashed differently")
	}
}
