package main_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// adaptArtifact is the part of BENCH_adapt.json the documents quote.
type adaptArtifact struct {
	Result struct {
		Rows []struct {
			Policy   string  `json:"policy"`
			Hits     int     `json:"hits"`
			Frames   int     `json:"frames"`
			HitRate  float64 `json:"hit_rate"`
			UpBytes  int     `json:"up_bytes"`
			RMSError float64 `json:"rms_error_px"`
			Switches int     `json:"mode_switches"`
		} `json:"rows"`
		HandoverFlips    int     `json:"handover_retx_flips"`
		HandoverAdaptive int     `json:"handover_hits_adaptive"`
		HandoverFull     int     `json:"handover_hits_fixed_full"`
		GENaive          int     `json:"ge_switches_naive"`
		GEPeakLoss       float64 `json:"ge_peak_wire_loss"`
	} `json:"result"`
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// submatches returns every match of re in doc, failing when there is none:
// a rewrite that drops a quoted number must drop its check too.
func submatches(t *testing.T, doc, name string, re *regexp.Regexp) [][]string {
	t.Helper()
	ms := re.FindAllStringSubmatch(doc, -1)
	if len(ms) == 0 {
		t.Fatalf("%s: nothing matches %s", name, re)
	}
	return ms
}

// TestDocsMatchArtifacts checks every number EXPERIMENTS.md and DESIGN.md
// quote from the checked-in BENCH_adapt.json: the adaptive-degradation
// table, the acceptance sentence and the companion scenarios. Regenerating
// the artifact without the documents, or editing one without the other,
// fails here.
func TestDocsMatchArtifacts(t *testing.T) {
	var art adaptArtifact
	if err := json.Unmarshal([]byte(readFile(t, "BENCH_adapt.json")), &art); err != nil {
		t.Fatal(err)
	}
	res := &art.Result
	rows := map[string]int{}
	for i, r := range res.Rows {
		rows[r.Policy] = i
	}
	want := func(name, what, got, expect string) {
		t.Helper()
		if got != expect {
			t.Errorf("%s: %s reads %s, BENCH_adapt.json says %s", name, what, got, expect)
		}
	}

	exp := readFile(t, "EXPERIMENTS.md")
	table := regexp.MustCompile(`(?m)^\| (adaptive|fixed-[a-z]+) \| (\d+)/(\d+) \| ([\d.]+)% \| ([\d ]+) \| ([\d.]+) \| (\d+) \|$`)
	seen := 0
	for _, m := range submatches(t, exp, "EXPERIMENTS.md", table) {
		i, ok := rows[m[1]]
		if !ok {
			t.Errorf("EXPERIMENTS.md: policy %s is not in BENCH_adapt.json", m[1])
			continue
		}
		seen++
		r := res.Rows[i]
		row := "EXPERIMENTS.md " + m[1]
		want(row, "hits", m[2]+"/"+m[3], fmt.Sprintf("%d/%d", r.Hits, r.Frames))
		want(row, "hit%", m[4], strconv.FormatFloat(100*r.HitRate, 'f', 1, 64))
		want(row, "up-bytes", strings.ReplaceAll(m[5], " ", ""), strconv.Itoa(r.UpBytes))
		want(row, "RMS error", m[6], strconv.FormatFloat(r.RMSError, 'f', 1, 64))
		want(row, "switches", m[7], strconv.Itoa(r.Switches))
	}
	if seen != len(res.Rows) {
		t.Errorf("EXPERIMENTS.md's table has %d of the artifact's %d policies", seen, len(res.Rows))
	}
	for _, m := range submatches(t, exp, "EXPERIMENTS.md", regexp.MustCompile(`exactly (\d+) ARQ↔FEC flips[^;]*adaptive (\d+) vs\s+fixed-full (\d+) hits`)) {
		want("EXPERIMENTS.md handover", "flips", m[1], strconv.Itoa(res.HandoverFlips))
		want("EXPERIMENTS.md handover", "adaptive hits", m[2], strconv.Itoa(res.HandoverAdaptive))
		want("EXPERIMENTS.md handover", "fixed-full hits", m[3], strconv.Itoa(res.HandoverFull))
	}
	for _, m := range submatches(t, exp, "EXPERIMENTS.md", regexp.MustCompile(`peak wire loss ([\d.]+)\)[^(]*control flips (\d+) times`)) {
		want("EXPERIMENTS.md burst", "peak wire loss", m[1], strconv.FormatFloat(res.GEPeakLoss, 'f', len(m[1])-2, 64))
		want("EXPERIMENTS.md burst", "no-hysteresis switches", m[2], strconv.Itoa(res.GENaive))
	}

	design := readFile(t, "DESIGN.md")
	accept := regexp.MustCompile(`adaptive (\d+)/(\d+) frames in budget \(([\d.]+)%\) vs\s+fixed-full (\d+), fixed-features (\d+), fixed-tracking (\d+)[^(]*\((\d+) kB vs (\d+) kB\)[^(]*\(([\d.]+) px\s+vs ([\d.]+)`)
	for _, m := range submatches(t, design, "DESIGN.md", accept) {
		a, full := res.Rows[rows["adaptive"]], res.Rows[rows["fixed-full"]]
		want("DESIGN.md", "adaptive hits", m[1]+"/"+m[2], fmt.Sprintf("%d/%d", a.Hits, a.Frames))
		want("DESIGN.md", "adaptive hit%", m[3], strconv.FormatFloat(100*a.HitRate, 'f', 1, 64))
		want("DESIGN.md", "fixed-full hits", m[4], strconv.Itoa(full.Hits))
		want("DESIGN.md", "fixed-features hits", m[5], strconv.Itoa(res.Rows[rows["fixed-features"]].Hits))
		want("DESIGN.md", "fixed-tracking hits", m[6], strconv.Itoa(res.Rows[rows["fixed-tracking"]].Hits))
		want("DESIGN.md", "adaptive kB", m[7], strconv.Itoa(int(math.Round(float64(a.UpBytes)/1000))))
		want("DESIGN.md", "fixed-full kB", m[8], strconv.Itoa(int(math.Round(float64(full.UpBytes)/1000))))
		want("DESIGN.md", "adaptive RMS error", m[9], strconv.FormatFloat(a.RMSError, 'f', 1, 64))
		want("DESIGN.md", "fixed-full RMS error", m[10], strconv.FormatFloat(full.RMSError, 'f', 1, 64))
	}
}
