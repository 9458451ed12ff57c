package mar

import (
	"errors"
	"testing"

	"marnet/internal/phy"
)

func TestPipelineEnergyOrderings(t *testing.T) {
	m := DefaultEnergyModel()
	const fullOps = 12e6   // extraction + matching
	const extractOps = 3e6 // CloudRidAR local share
	const frameBytes = 20000
	const featBytes = 6000
	const poseBytes = 400

	local, err := m.PipelineEnergy(phy.WiFiLocal.Name, fullOps, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.PipelineEnergy(phy.WiFiLocal.Name, 0, frameBytes, poseBytes)
	if err != nil {
		t.Fatal(err)
	}
	cloudRidAR, err := m.PipelineEnergy(phy.WiFiLocal.Name, extractOps, featBytes, poseBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Offloading the heavy compute over WiFi saves energy vs local.
	if full.Total() >= local.Total() {
		t.Errorf("FullOffload %.4f J should beat LocalOnly %.4f J on WiFi", full.Total(), local.Total())
	}
	// CloudRidAR ships far fewer bytes than FullOffload; its total should
	// also beat local compute.
	if cloudRidAR.TxJ >= full.TxJ {
		t.Errorf("feature upload energy %.6f should be below frame upload %.6f", cloudRidAR.TxJ, full.TxJ)
	}
	if cloudRidAR.Total() >= local.Total() {
		t.Errorf("CloudRidAR %.4f J should beat LocalOnly %.4f J", cloudRidAR.Total(), local.Total())
	}
	// The same FullOffload over LTE costs several times the WiFi radio
	// energy (the user-cost argument of Section VI-D).
	fullLTE, err := m.PipelineEnergy(phy.LTE.Name, 0, frameBytes, poseBytes)
	if err != nil {
		t.Fatal(err)
	}
	if fullLTE.TxJ < 4*full.TxJ {
		t.Errorf("LTE tx %.6f should be >= 4x WiFi %.6f", fullLTE.TxJ, full.TxJ)
	}
}

func TestPipelineEnergyUnknownRadio(t *testing.T) {
	m := DefaultEnergyModel()
	if _, err := m.PipelineEnergy("carrier-pigeon", 0, 100, 100); !errors.Is(err, ErrUnknownRadio) {
		t.Errorf("err = %v, want ErrUnknownRadio", err)
	}
	// Pure local compute needs no radio entry.
	if _, err := m.PipelineEnergy("carrier-pigeon", 1e6, 0, 0); err != nil {
		t.Errorf("local-only should not need a radio: %v", err)
	}
}
