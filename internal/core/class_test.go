package core

import "testing"

func TestClassAndPriorityStrings(t *testing.T) {
	cases := map[string]string{
		ClassFullBestEffort.String(): "full-best-effort",
		ClassLossRecovery.String():   "best-effort+recovery",
		ClassCritical.String():       "critical",
		Class(99).String():           "unknown-class",
		PrioHighest.String():         "highest",
		PrioNoDiscard.String():       "no-discard",
		PrioNoDelay.String():         "no-delay",
		PrioLowest.String():          "lowest",
		Priority(0).String():         "unknown-priority",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
	if PrioHighest.Discardable() || PrioNoDiscard.Discardable() {
		t.Error("highest/no-discard must not be discardable")
	}
	if !PrioNoDelay.Discardable() || !PrioLowest.Discardable() {
		t.Error("no-delay/lowest must be discardable")
	}
	if PrioHighest.Band() != 0 || PrioLowest.Band() != 3 {
		t.Error("band mapping wrong")
	}
}
