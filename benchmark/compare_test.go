package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lowerIsBetter := metricDef{Name: "call_p50_us", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "calls_per_s", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"within the bound", lowerIsBetter, []float64{100, 101, 99}, []float64{105, 104, 106}, verdictOK},
		{"worse than the bound", lowerIsBetter, []float64{100, 101, 99}, []float64{115, 114, 116}, verdictRegressed},
		{"better", lowerIsBetter, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictOK},
		{"direction: a higher rate is not a regression", higherIsBetter, []float64{1000, 1010, 990}, []float64{1200, 1210, 1190}, verdictOK},
		{"direction: a lower rate is", higherIsBetter, []float64{1000, 1010, 990}, []float64{850, 860, 840}, verdictRegressed},
		{"single runs are judged by the bound alone", lowerIsBetter, []float64{100}, []float64{111}, verdictRegressed},
		{"spread wider than the bound, runs overlap", lowerIsBetter, []float64{100, 140, 80, 120}, []float64{105, 150, 85, 118}, verdictUnresolved},
		{"wide spread, median far worse but runs overlap", lowerIsBetter, []float64{100, 140, 80, 120}, []float64{135, 150, 90, 160}, verdictUnresolved},
		{"wide spread, every new run better than every old one", lowerIsBetter, []float64{100, 140, 80, 120}, []float64{50, 70, 40, 60}, verdictOK},
		{"wide spread, every new run worse than every old one", lowerIsBetter, []float64{100, 140, 80, 120}, []float64{200, 280, 160, 240}, verdictRegressed},
	} {
		got := judge(c.def, c.old, c.new)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
	c := judge(lowerIsBetter, []float64{100}, []float64{111})
	if c.Ratio != 1.11 || c.Old != 100 || c.New != 111 {
		t.Errorf("ratio %v with base %v, want 1.11 with base 100", c.Ratio, c.Old)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, rate float64) {
		doc := document{Workloads: map[string]*workloadResult{"lockstep": {EndToEnd: map[string]point{
			"call_p50_us": {Value: p50, Unit: "us"},
			"calls_per_s": {Value: rate, Unit: "calls/s"},
		}}}}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.Encode(doc)                                       //nolint:errcheck // bytes.Buffer
		enc.Encode(contractLine{Correct: true, Attempted: 1}) //nolint:errcheck // bytes.Buffer
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("old1.json", 100, 10000)
	write("old2.json", 102, 10100)
	write("old3.json", 98, 9900)
	write("new1.json", 130, 10050)
	write("new2.json", 131, 10000)
	write("new3.json", 129, 9950)

	var out bytes.Buffer
	regressed, err := compareFiles(&out, filepath.Join(dir, "old*.json"), filepath.Join(dir, "new1.json")+","+filepath.Join(dir, "new[23].json"))
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("a 30 %% worse median under a 25 %% bound must regress:\n%s", out.String())
	}
	var p50Row, rateRow string
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.Contains(line, "call_p50_us"):
			p50Row = line
		case strings.Contains(line, "calls_per_s"):
			rateRow = line
		}
	}
	if !strings.Contains(p50Row, verdictRegressed) || !strings.Contains(p50Row, "(3)") || !strings.Contains(p50Row, "1.3000") {
		t.Errorf("p50 row %q: want regressed, 3 runs a side, ratio 1.3000", p50Row)
	}
	if !strings.HasSuffix(strings.TrimSpace(rateRow), verdictOK) {
		t.Errorf("rate row %q: want ok", rateRow)
	}
	if _, err := compareFiles(&out, filepath.Join(dir, "none*.json"), filepath.Join(dir, "new1.json")); err == nil {
		t.Error("a side that matches no file must be an error")
	}
}
