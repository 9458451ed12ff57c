package experiments

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/wire"
)

// ShardRow is one point of the core-scaling curve: sealed frames moved
// from a population of wire.Dial clients into a wire.ListenMuxShards
// server — the server rpc.WithShards runs — at one shard count.
type ShardRow struct {
	Shards        int     `json:"shards"`
	Senders       int     `json:"senders"`
	Delivered     int64   `json:"delivered"`
	NsPerFrame    float64 `json:"ns_per_frame"`
	PacketsPerSec float64 `json:"packets_per_sec"`
	// ReusePort reports whether the row ran socket-per-shard (kernel flow
	// hashing) or over the portable single-socket demux fallback.
	ReusePort bool `json:"reuseport"`
	// ShardSpread is the per-shard delivered count — how evenly the flow
	// hash spread the sender population.
	ShardSpread []int64 `json:"shard_spread"`
}

// ShardsResult is the core-scaling study. Marshalled as-is into
// BENCH_shards.json by `make bench`.
type ShardsResult struct {
	Seed         int64      `json:"seed"`
	NumCPU       int        `json:"num_cpu"`
	Packets      int        `json:"packets"`
	PayloadBytes int        `json:"payload_bytes"`
	Rows         []ShardRow `json:"rows"`
	// Speedup4 is 4-shard packets/s over 1-shard and MinSpeedup4 the floor
	// it is held to. Both are present only on a host with the four CPUs
	// the ratio needs: elsewhere the curve is flat by construction and
	// there is no ratio to report.
	Speedup4    float64 `json:"speedup_4_shards,omitempty"`
	MinSpeedup4 float64 `json:"min_speedup_4_shards,omitempty"`
	Err         string  `json:"err,omitempty"`
}

const (
	shardMinSpeedup4 = 2.5
	shardGateCPUs    = 4
	// The same sender population at every shard count, so only the server
	// varies along the curve; sixteen flows reach every one of 8 shards
	// with near certainty under the kernel's flow hash.
	shardSenders = 16

	// The closed loop: the senders together keep at most keyedWindow
	// frames in flight — well inside one loopback socket buffer, so the
	// kernel sheds none at any shard count — and give up on frames that
	// make no progress for keyedStall.
	keyedStream = 1
	keyedRate   = 1e9
	keyedWindow = 32
	keyedWarm   = 32 // frames per sender before the measured window
	keyedStall  = 500 * time.Millisecond
)

// keyedKey seals every frame of the socket studies: the cost that matters
// is the sealed pipeline Section VI-G requires.
var keyedKey = []byte("0123456789abcdef")

// Pass reports whether the scaling acceptance holds wherever it applies.
func (r ShardsResult) Pass() bool {
	return r.Err == "" && r.Speedup4 >= r.MinSpeedup4
}

// Shards runs the core-scaling study at full scale: 30k sealed 1000-byte
// frames at 1, 2, 4 and 8 shards. The packet count is fixed, never
// derived from timing or core count, so runs compare across commits on
// one host; seed only tags the output (real sockets have no useful seed).
func Shards(seed int64) ShardsResult {
	return ShardsAt(seed, []int{1, 2, 4, 8}, 30_000, 1000)
}

// ShardsAt runs the study at an explicit scale (CI smoke uses a small one).
func ShardsAt(seed int64, shardCounts []int, packets, payloadLen int) ShardsResult {
	res := ShardsResult{Seed: seed, NumCPU: runtime.NumCPU(), Packets: packets, PayloadBytes: payloadLen}
	rate := map[int]float64{}
	for _, n := range shardCounts {
		row, err := keyedLoop(n, shardSenders, packets, payloadLen, nil)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.Rows = append(res.Rows, row)
		rate[n] = row.PacketsPerSec
	}
	if res.NumCPU >= shardGateCPUs && rate[1] > 0 && rate[4] > 0 {
		res.Speedup4, res.MinSpeedup4 = rate[4]/rate[1], shardMinSpeedup4
	}
	return res
}

// keyedLoop moves packets sealed frames from senders wire.Dial clients
// (one socket each, so each is one kernel flow) into a ListenMuxShards
// server and times them wall-clock from first send to last delivery. The
// stream is reliable and never shed, so a frame the kernel drops is
// retransmitted and delivered == packets unless a sender stalls outright.
// rec, when set, records the senders' datapath events.
func keyedLoop(shards, senders, packets, payloadLen int, rec *obs.FlightRecorder) (ShardRow, error) {
	var delivered atomic.Int64
	g, err := wire.ListenMuxShards("127.0.0.1:0", shards, func(*net.UDPAddr) wire.Config {
		return wire.Config{Key: keyedKey, OnMessage: func(wire.Message) { delivered.Add(1) }}
	})
	if err != nil {
		return ShardRow{}, err
	}
	defer g.Close() //nolint:errcheck // teardown
	conns := make([]*wire.Conn, senders)
	for i := range conns {
		conns[i], err = wire.Dial(g.LocalAddr().String(), wire.Config{
			Key: keyedKey, StartBudget: keyedRate, Recorder: rec,
			Streams: []wire.StreamSpec{{ID: keyedStream, Class: core.ClassLossRecovery,
				Priority: core.PrioHighest, Rate: keyedRate, Deadline: time.Second}},
		})
		if err != nil {
			return ShardRow{}, err
		}
		defer conns[i].Close() //nolint:errcheck // teardown
	}
	spread := func() []int64 {
		out := make([]int64, g.Shards())
		for i, m := range g.Muxes() {
			for _, c := range m.Conns() {
				out[i] += c.Stats(keyedStream).Received
			}
		}
		return out
	}

	// move sends n frames round-robin over the senders, closed-loop against
	// delivery, and waits for them. Send only enqueues — sealing and the
	// socket write run on each conn's own pacer — so one feeding goroutine
	// keeps every sender busy. With the window full it parks rather than
	// spins: on a small host a yield loop takes the receiver's CPU.
	payload := make([]byte, payloadLen)
	move := func(n int) error {
		sent := delivered.Load()
		target := sent + int64(n)
		progress, since := sent, time.Now()
		for {
			d := delivered.Load()
			if d >= target {
				return nil
			}
			if sent < target && sent-d < keyedWindow {
				if _, err := conns[sent%int64(senders)].Send(keyedStream, payload); err != nil {
					return err
				}
				sent++
				continue
			}
			if d != progress {
				progress, since = d, time.Now()
			} else if time.Since(since) > keyedStall {
				return nil
			}
			time.Sleep(20 * time.Microsecond)
		}
	}

	// Warm every conn, pool and socket path before the measured window.
	if err := move(keyedWarm * senders); err != nil {
		return ShardRow{}, err
	}
	before, base := spread(), delivered.Load()
	t0 := time.Now()
	if err := move(packets); err != nil {
		return ShardRow{}, err
	}
	elapsed := time.Since(t0)
	row := ShardRow{
		Shards: g.Shards(), Senders: senders,
		Delivered: delivered.Load() - base, ReusePort: g.ReusePort(), ShardSpread: spread(),
	}
	for i := range row.ShardSpread {
		row.ShardSpread[i] -= before[i]
	}
	if row.Delivered > 0 {
		row.NsPerFrame = float64(elapsed.Nanoseconds()) / float64(row.Delivered)
		row.PacketsPerSec = float64(row.Delivered) / elapsed.Seconds()
	}
	return row, nil
}

// Format renders the study in the repo's table style.
func (r ShardsResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Core scaling (wire.Dial senders -> wire.ListenMuxShards, AES-GCM sealed, %d frames of %d B, NumCPU=%d)\n",
		r.Packets, r.PayloadBytes, r.NumCPU)
	if r.Err != "" {
		fmt.Fprintf(&b, "  study failed: %s\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  %-8s %8s %10s %10s %12s %10s  %s\n",
		"shards", "senders", "delivered", "ns/frame", "packets/s", "path", "spread")
	for _, row := range r.Rows {
		path := "demux"
		if row.ReusePort {
			path = "reuseport"
		} else if row.Shards == 1 {
			path = "single"
		}
		fmt.Fprintf(&b, "  %-8d %8d %10d %10.0f %12.0f %10s  %v\n",
			row.Shards, row.Senders, row.Delivered, row.NsPerFrame, row.PacketsPerSec, path, row.ShardSpread)
	}
	if r.MinSpeedup4 > 0 {
		fmt.Fprintf(&b, "  4-shard / 1-shard: %.2fx packets/s (floor %.1fx): %v\n", r.Speedup4, r.MinSpeedup4, r.Pass())
	}
	return b.String()
}
