// Package experiments regenerates every quantitative artifact of the paper
// (tables, figures, and in-text analyses). Each experiment is one function
// returning a result struct whose Format method prints the same rows or
// series the paper reports. cmd/marbench runs them all; the bench harness
// at the repository root wraps each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"marnet/internal/device"
	"marnet/internal/mar"
	"marnet/internal/offload"
	"marnet/internal/phy"
	"marnet/internal/simnet"
)

// TableIResult reproduces Table I: the device ecosystem.
type TableIResult struct {
	Devices []device.Device
}

// TableI returns the device characterization.
func TableI() TableIResult {
	return TableIResult{Devices: device.Table()}
}

// Format renders the table.
func (r TableIResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — MAR ecosystem devices\n")
	fmt.Fprintf(&b, "%-16s %-10s %-12s %-10s %-26s %-11s\n",
		"Platform", "Computing", "Storage", "Battery", "Network access", "Portability")
	for _, d := range r.Devices {
		fmt.Fprintf(&b, "%-16s %-10s %-12s %-10s %-26s %-11s\n",
			d.Platform, d.Computing, d.StorageStr(), d.BatteryStr(),
			strings.Join(d.NetworkAccess, "/"), d.Portability)
	}
	return b.String()
}

// TableIIRow is one measured scenario of Table II.
type TableIIRow struct {
	Platform   string
	Connection string
	LinkRTT    time.Duration // measured mean
	PaperRTT   time.Duration // the paper's reported value
	Lost       int64         // probes whose call failed
}

// TableIIResult reproduces Table II: CloudRidAR link RTT in four scenarios.
type TableIIResult struct {
	Rows []TableIIRow
}

// tableIIScenario builds one scenario topology and measures its RTT with
// the same probe methodology in all four cases.
type tableIIScenario struct {
	platform, connection string
	paper                time.Duration
	hops                 []simnet.PathSpec // one-way path; mirrored for return
}

// TableII measures the four CloudRidAR offloading scenarios:
//
//  1. Local server in the same room over a personal AP (paper: 8 ms).
//  2. Google Cloud (Taiwan) over the campus WiFi (paper: 36 ms).
//  3. A university server over the same WiFi, where firewalls and an
//     interconnection detour between Eduroam and the campus network double
//     the delay despite the shorter distance (paper: 72 ms).
//  4. Google Cloud over LTE (paper: 120 ms).
//
// The RTT is the mean of 200 offload.Probe calls, one every 25 ms.
func TableII(seed int64) TableIIResult {
	wifiLocal := phy.WiFiLocal
	campusWiFi := phy.WiFiLocal // managed campus AP: low jitter, a bit more base delay
	lte := phy.LTE

	scenarios := []tableIIScenario{
		{
			platform: "Local Server", connection: "WiFi", paper: 8 * time.Millisecond,
			hops: []simnet.PathSpec{
				simnet.Hop(wifiLocal.Up, 3*time.Millisecond, simnet.WithJitter(time.Millisecond)),
			},
		},
		{
			platform: "Cloud Server", connection: "WiFi", paper: 36 * time.Millisecond,
			hops: []simnet.PathSpec{
				simnet.Hop(campusWiFi.Up, 3*time.Millisecond, simnet.WithJitter(2*time.Millisecond)),
				simnet.Hop(phy.Backbone.Up, 14*time.Millisecond, simnet.WithJitter(time.Millisecond)),
			},
		},
		{
			platform: "University Server", connection: "WiFi", paper: 72 * time.Millisecond,
			hops: []simnet.PathSpec{
				simnet.Hop(campusWiFi.Up, 3*time.Millisecond, simnet.WithJitter(2*time.Millisecond)),
				// Eduroam/campus interconnection: firewalls and a congested
				// segment add non-negligible delay (Section IV-B).
				simnet.Hop(50e6, 18*time.Millisecond, simnet.WithJitter(4*time.Millisecond)),
				simnet.Hop(phy.Backbone.Up, 13*time.Millisecond, simnet.WithJitter(2*time.Millisecond)),
			},
		},
		{
			platform: "Cloud Server", connection: "LTE", paper: 120 * time.Millisecond,
			hops: []simnet.PathSpec{
				simnet.Hop(lte.Up, 42*time.Millisecond, simnet.WithJitter(12*time.Millisecond)),
				simnet.Hop(phy.Backbone.Up, 14*time.Millisecond, simnet.WithJitter(time.Millisecond)),
			},
		},
	}

	var out TableIIResult
	for i, sc := range scenarios {
		sim := simnet.New(seed + int64(i))
		clientMux := simnet.NewDemux()
		serverMux := simnet.NewDemux()
		uplink := simnet.NewPath(sim, serverMux, sc.hops...)
		downlink := simnet.NewPath(sim, clientMux, sc.hops...)
		r, err := offload.NewRunner(sim, offload.Probe, 0, uplink, downlink, clientMux, serverMux)
		if err != nil {
			panic(err)
		}
		r.Ping(200, 25*time.Millisecond)
		if err := sim.RunUntil(10 * time.Second); err != nil {
			panic(err) // deterministic harness: a horizon here is a bug
		}
		out.Rows = append(out.Rows, TableIIRow{
			Platform:   sc.platform,
			Connection: sc.connection,
			LinkRTT:    r.Latency.Mean().Round(100 * time.Microsecond),
			PaperRTT:   sc.paper,
			Lost:       r.Failed,
		})
	}
	return out
}

// Format renders the table with the paper's reference values.
func (r TableIIResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — CloudRidAR link RTT (measured vs paper)\n")
	fmt.Fprintf(&b, "%-18s %-10s %-14s %-10s\n", "Platform", "Connection", "Measured RTT", "Paper RTT")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %-10s %-14v %-10v\n", row.Platform, row.Connection, row.LinkRTT, row.PaperRTT)
	}
	return b.String()
}

// SectionIIIBResult carries the bandwidth arithmetic of Section III-B.
type SectionIIIBResult struct {
	RetinaLow, RetinaHigh float64
	FoV60Low, FoV70High   float64
	Raw4K60Bps            float64
	Raw4K60MiBps          float64
	Compressed250         float64
	MinARBandwidth        float64
	MaxRTT                time.Duration
	RecoveryRTT           time.Duration
}

// SectionIIIB computes the bandwidth/latency requirement numbers.
func SectionIIIB() SectionIIIBResult {
	lo, hi := mar.RetinaRate()
	fovLo, _ := mar.FoVScaledRate(60)
	_, fovHi := mar.FoVScaledRate(70)
	raw := mar.RawVideoBitrate(3840, 2160, 60, 12)
	return SectionIIIBResult{
		RetinaLow: lo, RetinaHigh: hi,
		FoV60Low: fovLo, FoV70High: fovHi,
		Raw4K60Bps:     raw,
		Raw4K60MiBps:   mar.RawVideoMiBps(raw),
		Compressed250:  mar.CompressedBitrate(raw, 250),
		MinARBandwidth: mar.MinARBandwidth,
		MaxRTT:         mar.MaxTolerableRTT,
		RecoveryRTT:    mar.RecoveryBudget(mar.MaxTolerableRTT),
	}
}

// Format renders the analysis.
func (r SectionIIIBResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section III-B — MAR bandwidth & latency requirements\n")
	fmt.Fprintf(&b, "retina->brain rate:          %.0f - %.0f Mb/s (paper: 6-10)\n", r.RetinaLow/1e6, r.RetinaHigh/1e6)
	fmt.Fprintf(&b, "camera FoV raw estimate:     %.1f - %.1f Gb/s (paper: ~9-12)\n", r.FoV60Low/1e9, r.FoV70High/1e9)
	fmt.Fprintf(&b, "uncompressed 4K60@12bpp:     %.2f Gb/s = %.0f MiB/s (paper's '711')\n", r.Raw4K60Bps/1e9, r.Raw4K60MiBps)
	fmt.Fprintf(&b, "lossy-compressed (~250:1):   %.1f Mb/s (paper: 20-30)\n", r.Compressed250/1e6)
	fmt.Fprintf(&b, "minimum AR-grade bandwidth:  %.0f Mb/s\n", r.MinARBandwidth/1e6)
	fmt.Fprintf(&b, "max tolerable RTT:           %v; ARQ affordable below %v\n", r.MaxRTT, r.RecoveryRTT)
	return b.String()
}

// SectionIVARow is one access technology characterization row.
type SectionIVARow struct {
	Profile     phy.Profile
	MeasuredRTT time.Duration // probed through a simnet link pair
	Asymmetry   float64
}

// SectionIVAResult characterizes the surveyed wireless technologies.
type SectionIVAResult struct {
	Rows []SectionIVARow
}

// SectionIVA probes each technology profile's simulated link.
func SectionIVA(seed int64) SectionIVAResult {
	var out SectionIVAResult
	for i, p := range phy.AllProfiles() {
		sim := simnet.New(seed + int64(i))
		clientMux, serverMux := simnet.NewDemux(), simnet.NewDemux()
		up := p.Uplink(sim, serverMux)
		down := p.Downlink(sim, clientMux)
		r, err := offload.NewRunner(sim, offload.Probe, 0, up, down, clientMux, serverMux)
		if err != nil {
			panic(err)
		}
		r.Ping(200, 20*time.Millisecond)
		if err := sim.RunUntil(10 * time.Second); err != nil {
			panic(err)
		}
		out.Rows = append(out.Rows, SectionIVARow{
			Profile:     p,
			MeasuredRTT: r.Latency.Mean().Round(100 * time.Microsecond),
			Asymmetry:   p.Asymmetry(),
		})
	}
	return out
}

// Format renders the characterization table.
func (r SectionIVAResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section IV-A — wireless access characterization (measured typical values)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %12s %12s %8s\n", "Technology", "Down", "Up", "Theor. down", "RTT", "Asym")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12s %12s %12s %12v %8.2f\n",
			row.Profile.Name,
			fmt.Sprintf("%.1f Mb/s", row.Profile.Down/1e6),
			fmt.Sprintf("%.1f Mb/s", row.Profile.Up/1e6),
			fmt.Sprintf("%.0f Mb/s", row.Profile.TheoreticalDown/1e6),
			row.MeasuredRTT, row.Asymmetry)
	}
	return b.String()
}
