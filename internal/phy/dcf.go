package phy

import (
	"time"

	"marnet/internal/simnet"
)

// DefaultFrameOverhead approximates the fixed per-frame cost of 802.11 DCF:
// DIFS + mean backoff + PHY preamble + SIFS + ACK.
const DefaultFrameOverhead = 150 * time.Microsecond

// Medium is a shared 802.11 channel under DCF. Saturated DCF gives each
// contending station an equal share of transmission *opportunities*, not of
// airtime — so a slow station occupies the channel far longer per frame and
// drags everyone down to roughly its own rate. This is the performance
// anomaly of Figure 2 (Heusse et al. 2003).
type Medium struct {
	sim      *simnet.Sim
	overhead time.Duration
	stations []*Station
	busy     bool
	next     int // round-robin cursor

	// CWMin, when nonzero, enables the collision model: each granted
	// transmission collides with probability 1-(1-1/CWMin)^(n-1), n being
	// the number of backlogged stations — the slotted-contention
	// approximation behind Bianchi-style DCF analysis. A collision wastes
	// the frame's airtime and the frame is retried.
	CWMin int
}

// Station is one 802.11 transmitter on a Medium with its own PHY rate.
type Station struct {
	medium    *Medium
	rate      float64 // PHY bit rate, bits/s
	queue     simnet.Queue
	dst       simnet.Handler
	SentBytes int64
}

// NewMedium creates an empty shared channel with the given per-frame MAC
// overhead (use DefaultFrameOverhead for 802.11-like figures).
func NewMedium(sim *simnet.Sim, overhead time.Duration) *Medium {
	return &Medium{sim: sim, overhead: overhead}
}

// AddStation attaches a transmitter with PHY rate bps delivering to dst.
// maxQueue bounds its interface queue in packets (0 = unlimited).
func (m *Medium) AddStation(bps float64, dst simnet.Handler, maxQueue int) *Station {
	st := &Station{medium: m, rate: bps, queue: simnet.NewDropTail(maxQueue), dst: dst}
	m.stations = append(m.stations, st)
	return st
}

// Send enqueues pkt on the station and contends for the channel.
func (st *Station) Send(pkt *simnet.Packet) {
	if !st.queue.Enqueue(pkt, st.medium.sim.Now()) {
		return
	}
	st.medium.kick()
}

func (m *Medium) kick() {
	if m.busy {
		return
	}
	m.transmitNext()
}

// transmitNext grants the next backlogged station (round-robin, which is
// the long-run behaviour of per-station-fair DCF access) one frame.
func (m *Medium) transmitNext() {
	n := len(m.stations)
	for i := 0; i < n; i++ {
		st := m.stations[(m.next+i)%n]
		pkt := st.queue.Dequeue(m.sim.Now())
		if pkt == nil {
			continue
		}
		m.next = (m.next + i + 1) % n
		m.busy = true
		tx := m.overhead + time.Duration(float64(pkt.Size*8)/st.rate*float64(time.Second))
		if m.collides() {
			// The slot is burned: both colliding frames' airtime is lost,
			// and the frame returns to the head of the station's queue.
			m.sim.Schedule(tx, func() {
				st.Send(pkt) // retry via normal contention
				m.busy = false
				m.transmitNext()
			})
			return
		}
		m.sim.Schedule(tx, func() {
			st.SentBytes += int64(pkt.Size)
			st.dst.Handle(pkt)
			m.busy = false
			m.transmitNext()
		})
		return
	}
	m.busy = false
}

// collides samples the contention model: with k backlogged stations a
// granted slot is clean only if no other backlogged station picked the
// same backoff slot out of CWMin.
func (m *Medium) collides() bool {
	if m.CWMin <= 0 {
		return false
	}
	backlogged := 0
	for _, st := range m.stations {
		if st.queue.Len() > 0 {
			backlogged++
		}
	}
	if backlogged < 1 {
		return false
	}
	pClean := 1.0
	for i := 0; i < backlogged; i++ {
		pClean *= 1 - 1/float64(m.CWMin)
	}
	return m.sim.Rand().Float64() > pClean
}

// AnomalyThroughput computes the analytic saturation goodput (bits/s) of
// each station under DCF round-robin access, all stations backlogged with
// frameSize-byte frames: every cycle each station sends exactly one frame,
// so each station's goodput is frame bits over the cycle airtime.
func AnomalyThroughput(frameSize int, overhead time.Duration, rates []float64) []float64 {
	var cycle float64 // seconds
	for _, r := range rates {
		cycle += overhead.Seconds() + float64(frameSize*8)/r
	}
	out := make([]float64, len(rates))
	for i := range rates {
		out[i] = float64(frameSize*8) / cycle
	}
	return out
}
