package marsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"marnet/internal/core"
	"marnet/internal/phy"
	"marnet/internal/rpc"
	"marnet/internal/wire"
)

// runShardedSim builds the real rpc server ASKING for four shards over a
// simulated endpoint. A caller-supplied transport is one shard, so the
// listener must ignore the count — otherwise per-shard drain goroutines
// would race the virtual clock and the trace would stop being a pure
// function of the seed. The scenario scripts a mid-run partition
// so the dead/resume path (where a peer's conn is replaced) is in
// the trace too, and returns the served shard count alongside the result.
func runShardedSim(seed int64) (*Result, int, error) {
	s := NewScenario("sharded-sim", seed)
	ep := s.Net.NewEndpoint("server", phy.Backbone)
	srv, err := rpc.NewServer("sim", nil,
		func(uint8, []byte) []byte { return []byte("ok") },
		rpc.WithPacketConn(ep),
		rpc.WithClock(s.Clock),
		rpc.WithWorkers(4),
		rpc.WithShards(4),
		rpc.WithServiceModel(func(uint8, []byte) time.Duration { return 4 * time.Millisecond }))
	if err != nil {
		return nil, 0, err
	}
	shards := srv.Shards()
	host := s.Net.NewHost("mobile", phy.WiFiLocal)

	res := &Result{}
	cl, err := rpc.Dial("sim://server", rpc.ClientConfig{
		Clock:     s.Clock,
		Dialer:    host.Dialer(ep),
		Seed:      seed + 1,
		Keepalive: 100 * time.Millisecond,
		Retry:     rpc.RetryPolicy{Max: 2},
		OnStateChange: func(st wire.State) {
			res.Transitions = append(res.Transitions, StateTransition{st, s.Sim.Now()})
			s.Logf("session %v at %s", st, stamp(s.Sim.Now()))
		},
	})
	if err != nil {
		return nil, 0, err
	}
	w := startWorkload(s, cl, core.PrioHighest, 400, 50*time.Millisecond, 250*time.Millisecond)

	s.At(1500*time.Millisecond, func() { host.Partition(true) })
	s.At(2200*time.Millisecond, func() { host.Partition(false) })

	s.Defer(func() { srv.Close() })
	s.Defer(func() {
		res.Reconnects = cl.Stats().Reconnects
		w.stop()
		cl.Close()
	})
	s.Check(func() error {
		if w.oks == 0 {
			return fmt.Errorf("no call ever succeeded over the sharded sim server")
		}
		if res.Reconnects < 1 {
			return fmt.Errorf("partition produced no reconnect — the resume path never ran")
		}
		return nil
	})
	if err := s.Run(4 * time.Second); err != nil {
		return nil, 0, err
	}
	return fillResult(res, s, w, cl, srv), shards, nil
}

// TestShardedSimCollapse pins the degenerate case the whole determinism
// story depends on: WithShards(4) over a simulated transport (a
// WithPacketConn one, hence one shard) serves exactly one shard, spawns
// zero goroutines (enforced by runScenario), and still carries traffic
// across a partition/resume.
func TestShardedSimCollapse(t *testing.T) {
	var shards int
	res := runScenario(t, "sharded-sim", func(seed int64) (*Result, error) {
		r, n, err := runShardedSim(seed)
		shards = n
		return r, err
	}, 42)
	if shards != 1 {
		t.Fatalf("Shards() = %d over a synchronous transport, want 1 (collapse)", shards)
	}
	if res.OKs == 0 || res.Reconnects < 1 {
		t.Fatalf("scenario vacuous: %d oks, %d reconnects", res.OKs, res.Reconnects)
	}
	if res.Server.Served == 0 {
		t.Error("server served nothing")
	}
}

// TestShardedSimDeterminismMatrix is the determinism guard for the
// sharded stack: for each seed, two independent runs produce
// byte-identical traces (the sharding refactor introduced no wall-clock
// or goroutine-order dependence into the simulated path), and different
// seeds still produce different traces.
func TestShardedSimDeterminismMatrix(t *testing.T) {
	seeds := []int64{1, 7, 1234}
	var hashes []uint64
	for _, seed := range seeds {
		a, _, err := runShardedSim(seed)
		if err != nil {
			t.Fatalf("seed=%d run A: %v", seed, err)
		}
		b, _, err := runShardedSim(seed)
		if err != nil {
			t.Fatalf("seed=%d run B: %v", seed, err)
		}
		if !bytes.Equal(a.Trace, b.Trace) {
			t.Errorf("seed=%d: traces differ (%d vs %d bytes, hash %x vs %x)",
				seed, len(a.Trace), len(b.Trace), a.TraceHash, b.TraceHash)
		}
		if len(a.Trace) == 0 {
			t.Errorf("seed=%d produced an empty trace", seed)
		}
		hashes = append(hashes, a.TraceHash)
	}
	if hashes[0] == hashes[1] && hashes[1] == hashes[2] {
		t.Error("all seeds produced the identical trace — seeding is inert")
	}
}
