// Package faults is a deterministic fault-injection engine for the
// real-UDP ARTP stack and the simnet simulator. It models the hostile
// networks of Section IV — bursty wireless loss, duplication, reordering,
// corruption, jittered delay, rate caps — plus operational faults
// (blackhole windows, one-way partitions, server restarts) as a scriptable
// timeline, so the robustness doctrine of Section VI can be exercised
// reproducibly in CI rather than waited for in production.
//
// The engine has two frontends sharing one decision core:
//
//   - Relay: a UDP impairment middlebox between a client and an upstream
//     server — the one relay every real-socket test and demo goes
//     through — with per-direction impairments and a single ordered
//     delay queue so equal delays never reorder.
//   - LinkFilter: a pure in-process simnet.PacketFilter that applies the
//     same decision core to simulated links, driven by simulated time.
//
// All randomness flows from one seed per direction; given the same packet
// sequence, the engine makes the same decisions.
package faults

import (
	"math/rand"
	"time"
)

// Direction selects which flow of a bidirectional path a config or event
// applies to. Up is client→upstream, Down is upstream→client.
type Direction int

// Directions.
const (
	Up Direction = iota
	Down
	Both
)

// String renders the direction for diagnostics.
func (d Direction) String() string {
	switch d {
	case Up:
		return "up"
	case Down:
		return "down"
	case Both:
		return "both"
	}
	return "?"
}

// GilbertElliott is the classic two-state burst-loss model: the channel
// flips between a good and a bad state with the given per-packet
// transition probabilities, and drops packets with a state-dependent
// probability. The stationary loss rate is
//
//	pBad*LossBad + (1-pBad)*LossGood, pBad = PGoodBad/(PGoodBad+PBadGood).
type GilbertElliott struct {
	PGoodBad float64 // P(good→bad) evaluated per packet
	PBadGood float64 // P(bad→good) evaluated per packet
	LossGood float64 // loss probability while good
	LossBad  float64 // loss probability while bad
}

// DirConfig describes the impairments applied to one direction.
type DirConfig struct {
	// Loss is the independent per-packet loss probability. Ignored when GE
	// is set (the burst model subsumes it).
	Loss float64
	// GE enables Gilbert–Elliott burst loss.
	GE *GilbertElliott
	// DropEvery deterministically drops every n-th packet (0 = disabled);
	// it composes with the probabilistic models and is what the wire and
	// rpc loss-recovery tests use for exactly reproducible loss.
	DropEvery int
	// Dup is the probability a forwarded packet is delivered twice.
	Dup float64
	// Reorder is the probability a packet is held ReorderDelay longer than
	// its neighbours, overtaking later traffic.
	Reorder float64
	// ReorderDelay is the extra hold applied to reordered packets
	// (default 4ms when Reorder > 0).
	ReorderDelay time.Duration
	// Corrupt is the probability a forwarded packet has one random bit
	// flipped in flight.
	Corrupt float64
	// Delay is the added one-way latency; Jitter adds a uniform extra in
	// [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
	// RateBps caps the direction's throughput with a token bucket
	// (0 = unlimited); over-rate packets are dropped, as an overrun kernel
	// buffer would.
	RateBps float64
	// RateBurst is the bucket depth in bytes (default 32 KiB).
	RateBurst int
	// Blackhole silently drops everything (a one-way partition when set on
	// a single direction).
	Blackhole bool
}

// Counters tallies what one direction's engine did. All drop categories
// are disjoint; Forwarded counts packets actually passed on (duplicates
// add DupForwarded on top).
type Counters struct {
	Received    int64 // packets offered to the engine
	Forwarded   int64 // packets passed through (possibly corrupted/delayed)
	Dropped     int64 // losses from the probabilistic/GE/DropEvery models
	RateDropped int64 // losses from the rate cap
	Blackholed  int64 // losses inside blackhole windows
	Corrupted   int64 // forwarded packets that had a bit flipped
	Duplicated  int64 // packets forwarded twice
	Reordered   int64 // packets held back to force reordering
}

// verdict is the decision core's output for one packet.
type verdict struct {
	drop    bool
	corrupt bool
	dup     bool
	delay   time.Duration // total extra one-way delay (incl. reorder hold)
}

// engine applies one direction's DirConfig deterministically. It is not
// safe for concurrent use; callers serialize (the relay under its mutex,
// the filter on the single simulator goroutine).
type engine struct {
	cfg   DirConfig
	rng   *rand.Rand
	geBad bool
	count int // for DropEvery

	tokens   float64
	lastFill time.Duration
	filled   bool

	c Counters
}

func newEngine(cfg DirConfig, seed int64) *engine {
	return &engine{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// setConfig swaps the impairment parameters mid-run, preserving the
// random stream and counters so timelines remain reproducible.
func (e *engine) setConfig(cfg DirConfig) { e.cfg = cfg }

// decide runs the decision core for one packet of the given wire size at
// elapsed time now.
func (e *engine) decide(now time.Duration, size int) verdict {
	e.c.Received++
	cfg := &e.cfg

	if cfg.Blackhole {
		e.c.Blackholed++
		return verdict{drop: true}
	}

	e.count++
	if cfg.DropEvery > 0 && e.count%cfg.DropEvery == 0 {
		e.c.Dropped++
		return verdict{drop: true}
	}

	// Loss model: Gilbert–Elliott when configured, else Bernoulli.
	if ge := cfg.GE; ge != nil {
		if e.geBad {
			if e.rng.Float64() < ge.PBadGood {
				e.geBad = false
			}
		} else if e.rng.Float64() < ge.PGoodBad {
			e.geBad = true
		}
		p := ge.LossGood
		if e.geBad {
			p = ge.LossBad
		}
		if p > 0 && e.rng.Float64() < p {
			e.c.Dropped++
			return verdict{drop: true}
		}
	} else if cfg.Loss > 0 && e.rng.Float64() < cfg.Loss {
		e.c.Dropped++
		return verdict{drop: true}
	}

	// Token-bucket rate cap.
	if cfg.RateBps > 0 {
		burst := float64(cfg.RateBurst)
		if burst <= 0 {
			burst = 32 * 1024
		}
		if !e.filled {
			e.tokens = burst
			e.filled = true
		} else {
			e.tokens += cfg.RateBps / 8 * (now - e.lastFill).Seconds()
			if e.tokens > burst {
				e.tokens = burst
			}
		}
		e.lastFill = now
		if e.tokens < float64(size) {
			e.c.RateDropped++
			return verdict{drop: true}
		}
		e.tokens -= float64(size)
	}

	v := verdict{delay: cfg.Delay}
	if cfg.Jitter > 0 {
		v.delay += time.Duration(e.rng.Int63n(int64(cfg.Jitter)))
	}
	if cfg.Reorder > 0 && e.rng.Float64() < cfg.Reorder {
		hold := cfg.ReorderDelay
		if hold <= 0 {
			hold = 4 * time.Millisecond
		}
		v.delay += hold
		e.c.Reordered++
	}
	if cfg.Corrupt > 0 && e.rng.Float64() < cfg.Corrupt {
		v.corrupt = true
		e.c.Corrupted++
	}
	if cfg.Dup > 0 && e.rng.Float64() < cfg.Dup {
		v.dup = true
		e.c.Duplicated++
	}
	e.c.Forwarded++
	return v
}

// corruptBit flips one rng-chosen bit of pkt in place.
func (e *engine) corruptBit(pkt []byte) {
	if len(pkt) == 0 {
		return
	}
	bit := e.rng.Intn(len(pkt) * 8)
	pkt[bit/8] ^= 1 << (bit % 8)
}

// counters returns a copy of the tallies.
func (e *engine) counters() Counters { return e.c }
