// Package phy models the wireless access technologies surveyed in Section
// IV of the paper: HSPA+, LTE, 802.11n/ac WiFi, and the D2D variants
// (WiFi-Direct, LTE-Direct). A Profile captures the measured everyday
// behaviour the paper reports (not the datasheet maxima), and can stamp out
// simnet links with rate-variation and outage processes attached.
//
// The package also contains an 802.11 DCF shared-medium model that exhibits
// the performance-anomaly problem of Figure 2.
package phy

import (
	"time"

	"marnet/internal/simnet"
)

// Profile describes one access technology with the paper's Section IV-A
// numbers: theoretical peak rates, measured typical rates, latency and its
// spread, and residual random loss.
type Profile struct {
	Name string

	// TheoreticalDown is the theoretical peak downlink rate in bits/s
	// (the marketing number).
	TheoreticalDown float64

	// Measured typical rates in bits/s (the paper's survey values).
	Down float64
	Up   float64

	// OneWay is the typical one-way propagation+scheduling delay; Jitter is
	// the width of the additional uniform delay per packet.
	OneWay time.Duration
	Jitter time.Duration

	// Loss is the residual random packet loss probability.
	Loss float64
}

// Profiles as characterized in Section IV-A. RTT figures in the paper are
// halved into one-way delays.
var (
	// HSPAPlus: theoretical 21-42 Mb/s consumer; measured 0.66-3.48 Mb/s
	// down / ~1.5 Mb/s up, 110-131 ms RTT with spikes to 800 ms and
	// order-of-magnitude throughput swings.
	HSPAPlus = Profile{
		Name: "HSPA+", TheoreticalDown: 42e6,
		Down: 2.5e6, Up: 1.5e6,
		OneWay: 60 * time.Millisecond, Jitter: 80 * time.Millisecond,
		Loss: 0.01,
	}

	// LTE: theoretical 326/75 Mb/s; measured ~19.6 down / 7.9 up (Speedtest
	// Aug 2016), 66-85 ms RTT.
	LTE = Profile{
		Name: "LTE", TheoreticalDown: 326e6,
		Down: 19.6e6, Up: 7.9e6,
		OneWay: 38 * time.Millisecond, Jitter: 20 * time.Millisecond,
		Loss: 0.003,
	}

	// WiFi80211n: theoretical 600 Mb/s; measured 6.7 Mb/s down across all
	// users, ~150 ms average reported latency on open APs.
	WiFi80211n = Profile{
		Name: "802.11n", TheoreticalDown: 600e6,
		Down: 6.7e6, Up: 6.7e6,
		OneWay: 75 * time.Millisecond, Jitter: 40 * time.Millisecond,
		Loss: 0.01,
	}

	// WiFi80211ac: theoretical 1300 Mb/s; measured 33.4 Mb/s.
	WiFi80211ac = Profile{
		Name: "802.11ac", TheoreticalDown: 1300e6,
		Down: 33.4e6, Up: 33.4e6,
		OneWay: 40 * time.Millisecond, Jitter: 25 * time.Millisecond,
		Loss: 0.005,
	}

	// WiFiLocal: a controlled personal access point — "delays can drop to a
	// few milliseconds" (Section IV-A4).
	WiFiLocal = Profile{
		Name: "WiFi (local AP)", TheoreticalDown: 1300e6,
		Down: 200e6, Up: 200e6,
		OneWay: 2 * time.Millisecond, Jitter: 2 * time.Millisecond,
		Loss: 0.001,
	}

	// WiFiDirect: 500 Mb/s within 200 m (Section IV-A5), strongly
	// mobility-dependent.
	WiFiDirect = Profile{
		Name: "WiFi-Direct", TheoreticalDown: 500e6,
		Down: 120e6, Up: 120e6,
		OneWay: 3 * time.Millisecond, Jitter: 3 * time.Millisecond,
		Loss: 0.005,
	}

	// LTEDirect: ~1 Gb/s within 1 km, licensed spectrum, low latency
	// (Section IV-A3) — undeployed, so these are datasheet figures.
	LTEDirect = Profile{
		Name: "LTE-Direct", TheoreticalDown: 1e9,
		Down: 400e6, Up: 400e6,
		OneWay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond,
		Loss: 0.002,
	}

	// Backbone: wired ISP/peering segment used server-side in topologies.
	Backbone = Profile{
		Name: "backbone", TheoreticalDown: 10e9,
		Down: 1e9, Up: 1e9,
		OneWay: 5 * time.Millisecond, Jitter: time.Millisecond,
		Loss: 0.0001,
	}
)

// AllProfiles lists the surveyed technologies in the order of Section IV-A.
func AllProfiles() []Profile {
	return []Profile{HSPAPlus, LTE, WiFi80211n, WiFi80211ac, WiFiLocal, WiFiDirect, LTEDirect}
}

// Uplink builds a device→network link from the profile's measured uplink
// characteristics.
func (p Profile) Uplink(sim *simnet.Sim, dst simnet.Handler, opts ...simnet.LinkOption) *simnet.Link {
	base := []simnet.LinkOption{
		simnet.WithJitter(p.Jitter),
		simnet.WithLoss(p.Loss),
		simnet.WithName(p.Name + "/up"),
	}
	return simnet.NewLink(sim, p.Up, p.OneWay, dst, append(base, opts...)...)
}

// Downlink builds a network→device link from the profile's measured
// downlink characteristics.
func (p Profile) Downlink(sim *simnet.Sim, dst simnet.Handler, opts ...simnet.LinkOption) *simnet.Link {
	base := []simnet.LinkOption{
		simnet.WithJitter(p.Jitter),
		simnet.WithLoss(p.Loss),
		simnet.WithName(p.Name + "/down"),
	}
	return simnet.NewLink(sim, p.Down, p.OneWay, dst, append(base, opts...)...)
}

// Asymmetry reports the down/up ratio of the measured rates (Section IV-D
// discusses ratios of ~2.5-8 on access networks).
func (p Profile) Asymmetry() float64 {
	if p.Up == 0 {
		return 0
	}
	return p.Down / p.Up
}
