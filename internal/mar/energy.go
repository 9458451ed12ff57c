package mar

import (
	"errors"
	"fmt"

	"marnet/internal/phy"
)

// Battery life is the third axis of Table I (2-3 h on glasses, 6-8 h on
// phones) and half the reason MAR offloads at all: computation drains the
// battery, but so does the radio. This model scores each offloading
// strategy in joules per frame so the LocalOnly / CloudRidAR / FullOffload
// decision can be made on energy as well as latency.
//
// Constants are order-of-magnitude figures from the mobile-systems
// literature: ~1 nJ per normalized op for a mobile SoC, WiFi transmission
// around 0.5 µJ/byte, and LTE several times that once its long tail states
// are amortized in.

// ErrUnknownRadio is returned for technologies without an energy entry.
var ErrUnknownRadio = errors.New("mar: unknown radio technology")

// EnergyModel holds the device's energy coefficients.
type EnergyModel struct {
	// JPerOp is the compute energy per normalized op (J).
	JPerOp float64
	// TxJPerByte / RxJPerByte per technology name (phy.Profile.Name).
	TxJPerByte map[string]float64
	RxJPerByte map[string]float64
}

// DefaultEnergyModel returns coefficients for a smartphone-class device.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		JPerOp: 1e-9,
		TxJPerByte: map[string]float64{
			phy.WiFiLocal.Name:   0.4e-6,
			phy.WiFi80211n.Name:  0.5e-6,
			phy.WiFi80211ac.Name: 0.45e-6,
			phy.WiFiDirect.Name:  0.4e-6,
			phy.LTE.Name:         2.5e-6,
			phy.LTEDirect.Name:   1.2e-6,
			phy.HSPAPlus.Name:    3.0e-6,
		},
		RxJPerByte: map[string]float64{
			phy.WiFiLocal.Name:   0.3e-6,
			phy.WiFi80211n.Name:  0.35e-6,
			phy.WiFi80211ac.Name: 0.3e-6,
			phy.WiFiDirect.Name:  0.3e-6,
			phy.LTE.Name:         1.8e-6,
			phy.LTEDirect.Name:   0.9e-6,
			phy.HSPAPlus.Name:    2.2e-6,
		},
	}
}

// FrameEnergy is the per-frame energy breakdown in joules.
type FrameEnergy struct {
	ComputeJ float64
	TxJ      float64
	RxJ      float64
}

// Total returns the summed energy.
func (e FrameEnergy) Total() float64 { return e.ComputeJ + e.TxJ + e.RxJ }

// PipelineEnergy scores one strategy: localOps run on the device, upBytes
// and downBytes cross the given radio per frame (amortize trigger-based
// pipelines before calling — e.g. divide by TriggerEvery).
func (m EnergyModel) PipelineEnergy(radio string, localOps float64, upBytes, downBytes int) (FrameEnergy, error) {
	var e FrameEnergy
	e.ComputeJ = localOps * m.JPerOp
	if upBytes > 0 || downBytes > 0 {
		tx, ok := m.TxJPerByte[radio]
		if !ok {
			return FrameEnergy{}, fmt.Errorf("%w: %q", ErrUnknownRadio, radio)
		}
		rx, ok := m.RxJPerByte[radio]
		if !ok {
			return FrameEnergy{}, fmt.Errorf("%w: %q", ErrUnknownRadio, radio)
		}
		e.TxJ = float64(upBytes) * tx
		e.RxJ = float64(downBytes) * rx
	}
	return e, nil
}
