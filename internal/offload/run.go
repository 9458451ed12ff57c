package offload

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/rpc"
	"marnet/internal/simnet"
	"marnet/internal/trace"
	"marnet/internal/wire"
)

// chunkBytes is the most payload one call of a frame carries: a frame
// larger than rpc's request cap (wire.MaxPayload less the 14-byte call
// header, 1186 bytes) ships as several calls in parallel.
const chunkBytes = 1100

// frameHeader opens every request: [4B frame sequence][2B call index], so
// the surrogate can tell which call completes a frame.
const frameHeader = 6

// methodFrame is the rpc method every call of a frame uses.
const methodFrame uint8 = 1

// deadlineBudgets is a frame's call deadline in budgets: longer than the
// budget, as in the adapt study, so a late frame still has a latency.
const deadlineBudgets = 4

// pingDeadline bounds one probe: far past any round trip the studies
// model, so a probe fails only when ARTP gave up on its datagrams.
const pingDeadline = time.Second

// serverAddr is the surrogate's address on its link; the device dials
// from the addresses after it, a fresh one per session (re-)dial.
const serverAddr simnet.Addr = 1

// Runner is one device offloading a pipeline to one surrogate over a
// duplex simnet path: an rpc.Client dialling from a marsim.LinkEndpoint
// into up, an rpc.Server on a LinkEndpoint answering into down. A frame
// ships as ⌈max(UploadBytes, ResultBytes)/1100⌉ parallel calls whose
// request payloads sum to UploadBytes and whose answers sum to
// ResultBytes; the surrogate charges RemoteOps at its ops/s once per
// frame, on the call that completes the frame, and every other call
// costs nothing.
type Runner struct {
	sim     *simnet.Sim
	pl      Pipeline
	chunks  int
	cl      *rpc.Client
	seq     uint32         // frames shipped so far
	arrived map[uint32]int // surrogate: calls of each frame served so far

	// Latency of the frames that completed: for Run from capture to the
	// last answer, for Ping from the first send to the last answer.
	Latency      trace.DurStats
	DeadlineHits int64
	DeadlineMiss int64 // late frames, and frames whose calls failed
	UpBytes      int64 // request payload bytes sent
	Failed       int64 // shipped frames with a failed call
}

// NewRunner wires a device and a surrogate of serverOps ops/s onto the
// caller's path: up carries the device's datagrams to serverMux, down the
// surrogate's to clientMux — the shape marsim.DialLinks takes. A pipeline
// that does not offload gets no session at all and sends nothing.
func NewRunner(sim *simnet.Sim, pl Pipeline, serverOps float64, up, down simnet.Handler, clientMux, serverMux *simnet.Demux) (*Runner, error) {
	r := &Runner{sim: sim, pl: pl, arrived: make(map[uint32]int)}
	if !pl.Offloads() {
		return r, nil
	}
	var compute time.Duration
	if pl.RemoteOps > 0 {
		if serverOps <= 0 {
			return nil, fmt.Errorf("offload: surrogate of %v ops/s for %q", serverOps, pl.Name)
		}
		compute = time.Duration(pl.RemoteOps / serverOps * float64(time.Second))
	}
	r.chunks = (max(pl.UploadBytes, pl.ResultBytes) + chunkBytes - 1) / chunkBytes
	answer := make([]byte, chunkBytes)
	clock := marsim.NewClock(sim)
	sep := marsim.NewLinkEndpoint(serverAddr, down)
	serverMux.Register(serverAddr, sep)
	_, err := rpc.NewServer("sim", nil,
		func(_ uint8, req []byte) []byte {
			return answer[:share(pl.ResultBytes, r.chunks, int(binary.LittleEndian.Uint16(req[4:])))]
		},
		rpc.WithPacketConn(sep),
		rpc.WithClock(clock),
		rpc.WithServiceModel(func(_ uint8, req []byte) time.Duration {
			f := binary.LittleEndian.Uint32(req)
			if r.arrived[f]++; r.arrived[f] < r.chunks {
				return 0
			}
			delete(r.arrived, f)
			return compute
		}))
	if err != nil {
		return nil, fmt.Errorf("offload: surrogate: %w", err)
	}
	addr := serverAddr
	r.cl, err = rpc.Dial("sim", rpc.ClientConfig{Clock: clock, Dialer: func(cfg wire.Config) (*wire.Conn, error) {
		return wire.DialWith(func() (wire.PacketConn, *net.UDPAddr, error) {
			addr++
			ep := marsim.NewLinkEndpoint(addr, up)
			clientMux.Register(addr, ep)
			return ep, marsim.LinkAddr(serverAddr), nil
		}, cfg)
	}})
	if err != nil {
		return nil, fmt.Errorf("offload: dial: %w", err)
	}
	return r, nil
}

// share is call i's part of total bytes split over n calls.
func share(total, n, i int) int {
	s := total / n
	if i < total%n {
		s++
	}
	return s
}

// Ship offloads one frame now; the pipeline must offload. done gets the
// time from the first send to the last answer, and the first call error.
// A call carries at least the frame header, so a frame of fewer than
// 6 bytes a call ships that much more.
func (r *Runner) Ship(deadline time.Duration, done func(lat time.Duration, err error)) {
	seq, t0, left := r.seq, r.sim.Now(), r.chunks
	r.seq++
	var failed error
	for i := 0; i < r.chunks; i++ {
		req := make([]byte, max(share(r.pl.UploadBytes, r.chunks, i), frameHeader))
		binary.LittleEndian.PutUint32(req, seq)
		binary.LittleEndian.PutUint16(req[4:], uint16(i))
		r.UpBytes += int64(len(req))
		r.cl.CallAsync(methodFrame, req, core.PrioHighest, deadline, func(_ []byte, err error) {
			if err != nil && failed == nil {
				failed = err
			}
			if left--; left == 0 {
				done(r.sim.Now()-t0, failed)
			}
		})
	}
}

// Run captures fps frames a second for dur, from now. Each frame spends
// the pipeline's LocalOps at deviceOps ops/s; every TriggerEvery-th frame
// of an offloading pipeline then ships. A frame's latency runs from
// capture to its last answer and is scored against budget; a frame whose
// calls fail is a miss without a latency.
func (r *Runner) Run(deviceOps float64, fps int, budget, dur time.Duration) error {
	if deviceOps <= 0 || fps <= 0 || budget <= 0 {
		return fmt.Errorf("offload: run at %v ops/s, %d FPS, budget %v", deviceOps, fps, budget)
	}
	period := time.Second / time.Duration(fps)
	local := time.Duration(r.pl.LocalOps / deviceOps * float64(time.Second))
	every := int64(max(r.pl.TriggerEvery, 1))
	for i, at := int64(0), time.Duration(0); at <= dur; i, at = i+1, at+period {
		r.sim.Schedule(at, func() {
			t0 := r.sim.Now()
			r.sim.Schedule(local, func() {
				if !r.pl.Offloads() || i%every != 0 {
					r.score(r.sim.Now()-t0, budget)
					return
				}
				r.Ship(deadlineBudgets*budget, func(_ time.Duration, err error) {
					if err != nil {
						r.Failed++
						r.DeadlineMiss++
						return
					}
					r.score(r.sim.Now()-t0, budget)
				})
			})
		})
	}
	return nil
}

func (r *Runner) score(lat, budget time.Duration) {
	r.Latency.Observe(lat)
	if lat <= budget {
		r.DeadlineHits++
	} else {
		r.DeadlineMiss++
	}
}

// Ping ships count frames, one every interval from now, and records each
// round trip in Latency; a frame that fails counts in Failed. With the
// Probe pipeline this is Table II's link RTT.
func (r *Runner) Ping(count int, interval time.Duration) {
	for i := 0; i < count; i++ {
		r.sim.Schedule(time.Duration(i)*interval, func() {
			r.Ship(pingDeadline, func(lat time.Duration, err error) {
				if err != nil {
					r.Failed++
					return
				}
				r.Latency.Observe(lat)
			})
		})
	}
}
