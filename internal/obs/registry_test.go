package obs

import (
	"strings"
	"testing"
)

func TestRegistryLabelCardinalityCap(t *testing.T) {
	r := NewRegistry()
	r.maxSets = 2

	a := r.Counter("reqs_total", L("session", "a"))
	b := r.Counter("reqs_total", L("session", "b"))
	a.Add(1)
	b.Add(2)
	if dropped(r) != 0 {
		t.Fatalf("cap fired under the limit: dropped=%d", dropped(r))
	}

	// Third label set: detached but still a working instrument.
	c := r.Counter("reqs_total", L("session", "c"))
	c.Add(40)
	if c.Value() != 40 {
		t.Fatalf("detached counter value = %d, want 40", c.Value())
	}
	if dropped(r) != 1 {
		t.Fatalf("dropped = %d, want 1", dropped(r))
	}

	// Existing sets keep resolving to the same instruments.
	if again := r.Counter("reqs_total", L("session", "a")); again != a {
		t.Fatal("existing label set no longer resolves to its instrument")
	}
	// The refused set stays refused: a fresh detached instrument each time.
	c2 := r.Counter("reqs_total", L("session", "c"))
	if c2 == c {
		t.Fatal("refused label set got registered on retry")
	}
	if dropped(r) != 2 {
		t.Fatalf("dropped = %d after retry, want 2", dropped(r))
	}

	// Unlabeled metrics are never capped, and other families are
	// independent.
	r.Counter("unlabeled_total").Inc()
	r.GaugeFunc("depth", func() float64 { return 1 }, L("q", "x"))
	r.GaugeFunc("depth", func() float64 { return 2 }, L("q", "y"))
	if dropped(r) != 2 {
		t.Fatalf("unrelated metrics tripped the cap: dropped=%d", dropped(r))
	}

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, `session="c"`) {
		t.Errorf("export contains the capped label set:\n%s", out)
	}
	for _, want := range []string{
		`reqs_total{session="a"} 1`,
		`reqs_total{session="b"} 2`,
		"obs_dropped_labels_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDropCounterCoexistsWithUserMetric(t *testing.T) {
	r := NewRegistry()
	// A user registers the drop-counter name before the cap ever fires:
	// the cap must reuse that counter, not panic on a kind clash.
	user := r.Counter(droppedLabelsMetric)
	r.maxSets = 1
	r.Counter("f", L("x", "1")).Inc()
	r.Counter("f", L("x", "2")).Inc()
	if user.Value() != 1 {
		t.Fatalf("pre-registered drop counter = %d, want 1", user.Value())
	}
	if dropped(r) != 1 {
		t.Fatalf("dropped = %d, want 1", dropped(r))
	}
}

// dropped reads the cardinality cap's drop counter off the export.
func dropped(r *Registry) int64 {
	p, _ := lookup(r, droppedLabelsMetric)
	return int64(p.Value)
}
