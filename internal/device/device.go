// Package device encodes Table I of the paper: the basic characteristics of
// the devices that participate in a MAR ecosystem, plus a normalized
// compute-capability model used by the offloading cost equations.
package device

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// ErrUnknownDevice is returned by Lookup for unknown platform names.
var ErrUnknownDevice = errors.New("device: unknown platform")

// Level is a coarse qualitative level used by Table I.
type Level int

// Qualitative levels.
const (
	LevelNone Level = iota + 1
	LevelVeryLow
	LevelLow
	LevelMedium
	LevelHigh
	LevelUnlimited
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelVeryLow:
		return "very low"
	case LevelLow:
		return "low"
	case LevelMedium:
		return "medium"
	case LevelHigh:
		return "high"
	case LevelUnlimited:
		return "unlimited"
	default:
		return "unknown"
	}
}

// Device is one row of Table I.
type Device struct {
	Platform      string
	Computing     Level
	StorageMinGB  int // 0 = unlimited
	StorageMaxGB  int
	BatteryMin    time.Duration // 0 = unlimited
	BatteryMax    time.Duration
	NetworkAccess []string
	Portability   Level

	// ComputeOps is the normalized compute capacity (R_m / R_c in the
	// Section III equations), in abstract ops/s; a desktop PC is 1e9.
	ComputeOps float64
}

// Table returns Table I in the paper's column order.
func Table() []Device {
	return []Device{
		{
			Platform: "Smart glasses", Computing: LevelVeryLow,
			StorageMinGB: 4, StorageMaxGB: 16,
			BatteryMin: 2 * time.Hour, BatteryMax: 3 * time.Hour,
			NetworkAccess: []string{"Bluetooth"}, Portability: LevelHigh,
			ComputeOps: 2e7,
		},
		{
			Platform: "Smartphone", Computing: LevelLow,
			StorageMinGB: 16, StorageMaxGB: 128,
			BatteryMin: 6 * time.Hour, BatteryMax: 8 * time.Hour,
			NetworkAccess: []string{"Cellular", "WiFi"}, Portability: LevelHigh,
			ComputeOps: 1e8,
		},
		{
			Platform: "Tablet PC", Computing: LevelMedium,
			StorageMinGB: 32, StorageMaxGB: 256,
			BatteryMin: 6 * time.Hour, BatteryMax: 8 * time.Hour,
			NetworkAccess: []string{"Cellular", "WiFi"}, Portability: LevelMedium,
			ComputeOps: 2.5e8,
		},
		{
			Platform: "Laptop PC", Computing: LevelMedium,
			StorageMinGB: 128, StorageMaxGB: 2048,
			BatteryMin: 2 * time.Hour, BatteryMax: 8 * time.Hour,
			NetworkAccess: []string{"Cellular", "WiFi", "Ethernet"}, Portability: LevelMedium,
			ComputeOps: 5e8,
		},
		{
			Platform: "Desktop PC", Computing: LevelHigh,
			StorageMinGB: 512, StorageMaxGB: 2048,
			NetworkAccess: []string{"WiFi", "Ethernet"}, Portability: LevelNone,
			ComputeOps: 1e9,
		},
		{
			Platform: "Cloud computing", Computing: LevelUnlimited,
			NetworkAccess: []string{"Ethernet", "Fiber Optic"}, Portability: LevelNone,
			ComputeOps: 2e10,
		},
	}
}

// Lookup finds a Table I row by platform name (case-insensitive).
func Lookup(platform string) (Device, error) {
	for _, d := range Table() {
		if strings.EqualFold(d.Platform, platform) {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("%w: %q", ErrUnknownDevice, platform)
}

// StorageStr formats the storage column as in Table I.
func (d Device) StorageStr() string {
	if d.StorageMinGB == 0 {
		return "unlimited"
	}
	fmtGB := func(gb int) string {
		if gb >= 1024 {
			return fmt.Sprintf("%dTB", gb/1024)
		}
		return fmt.Sprintf("%dGB", gb)
	}
	return fmtGB(d.StorageMinGB) + "-" + fmtGB(d.StorageMaxGB)
}

// BatteryStr formats the battery column as in Table I.
func (d Device) BatteryStr() string {
	if d.BatteryMin == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d-%dh", int(d.BatteryMin.Hours()), int(d.BatteryMax.Hours()))
}
