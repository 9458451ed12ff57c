package device

import (
	"errors"
	"testing"
)

func TestTableShape(t *testing.T) {
	tab := Table()
	if len(tab) != 6 {
		t.Fatalf("Table I has %d rows, want 6", len(tab))
	}
	want := []string{"Smart glasses", "Smartphone", "Tablet PC", "Laptop PC", "Desktop PC", "Cloud computing"}
	for i, d := range tab {
		if d.Platform != want[i] {
			t.Errorf("row %d = %q, want %q", i, d.Platform, want[i])
		}
		if d.ComputeOps <= 0 {
			t.Errorf("%s: non-positive compute", d.Platform)
		}
		if len(d.NetworkAccess) == 0 {
			t.Errorf("%s: no network access", d.Platform)
		}
	}
}

func TestComputeMonotoneWithTable(t *testing.T) {
	tab := Table()
	for i := 1; i < len(tab); i++ {
		if tab[i].ComputeOps <= tab[i-1].ComputeOps {
			t.Errorf("compute should increase down Table I: %s (%v) <= %s (%v)",
				tab[i].Platform, tab[i].ComputeOps, tab[i-1].Platform, tab[i-1].ComputeOps)
		}
	}
}

func TestLookup(t *testing.T) {
	d, err := Lookup("smartphone")
	if err != nil {
		t.Fatal(err)
	}
	if d.Platform != "Smartphone" {
		t.Errorf("lookup gave %+v", d)
	}
	if _, err := Lookup("mainframe"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("err = %v, want ErrUnknownDevice", err)
	}
}

func TestFormatting(t *testing.T) {
	glasses, _ := Lookup("Smart glasses")
	if got := glasses.StorageStr(); got != "4GB-16GB" {
		t.Errorf("storage = %q", got)
	}
	if got := glasses.BatteryStr(); got != "2-3h" {
		t.Errorf("battery = %q", got)
	}
	cloud, _ := Lookup("Cloud computing")
	if cloud.StorageStr() != "unlimited" || cloud.BatteryStr() != "unlimited" {
		t.Error("cloud should be unlimited")
	}
	laptop, _ := Lookup("Laptop PC")
	if got := laptop.StorageStr(); got != "128GB-2TB" {
		t.Errorf("laptop storage = %q", got)
	}
	if Level(99).String() != "unknown" {
		t.Error("unknown level string")
	}
	if LevelVeryLow.String() != "very low" || LevelUnlimited.String() != "unlimited" {
		t.Error("level strings wrong")
	}
}
