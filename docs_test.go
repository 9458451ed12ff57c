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
	"time"

	"marnet/internal/experiments"
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
// quote from the checked-in BENCH_adapt.json — the adaptive-degradation
// table, the acceptance sentence and the companion scenarios — and every
// row of EXPERIMENTS.md's shards, multipath, observability and city tables
// against BENCH_shards.json, BENCH_multipath.json, BENCH_obs.json and
// BENCH_city.json. Regenerating an artifact without the documents, or
// editing one without the other, fails here.
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

	checkShardsTable(t, exp)
	checkMultipathTable(t, exp)
	checkObsTable(t, exp)
	checkCityTable(t, exp)
}

// loadResult decodes the "result" object of a checked-in BENCH_*.json.
func loadResult(t *testing.T, file string, v any) {
	t.Helper()
	var art struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(readFile(t, file)), &art); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(art.Result, v); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
}

// quoted reports a table cell that differs from the artifact it quotes.
func quoted(t *testing.T, file, row, what, got, expect string) {
	t.Helper()
	if got != expect {
		t.Errorf("EXPERIMENTS.md %s: %s reads %s, %s says %s", row, what, got, file, expect)
	}
}

func itoa(f float64) string { return strconv.Itoa(int(math.Round(f))) }

func checkShardsTable(t *testing.T, exp string) {
	const file = "BENCH_shards.json"
	var res struct {
		Rows []struct {
			Shards     int     `json:"shards"`
			Delivered  int     `json:"delivered"`
			NsPerFrame float64 `json:"ns_per_frame"`
			PPS        float64 `json:"packets_per_sec"`
			Reuseport  bool    `json:"reuseport"`
			Spread     []int   `json:"shard_spread"`
		} `json:"rows"`
	}
	loadResult(t, file, &res)
	table := regexp.MustCompile(`(?m)^\| (\d+) \| (\d+) \| (\d+) \| (\d+) k \| (single|reuseport) \| \[([\d, ]+)\] \|$`)
	ms := submatches(t, exp, "EXPERIMENTS.md", table)
	if len(ms) != len(res.Rows) {
		t.Errorf("EXPERIMENTS.md's shards table has %d rows, %s %d", len(ms), file, len(res.Rows))
	}
	for i, m := range ms[:min(len(ms), len(res.Rows))] {
		r := res.Rows[i]
		row := m[1] + " shards"
		path := "single"
		if r.Reuseport {
			path = "reuseport"
		}
		quoted(t, file, row, "shards", m[1], strconv.Itoa(r.Shards))
		quoted(t, file, row, "delivered", m[2], strconv.Itoa(r.Delivered))
		quoted(t, file, row, "ns/frame", m[3], itoa(r.NsPerFrame))
		quoted(t, file, row, "packets/s", m[4], itoa(r.PPS/1000))
		quoted(t, file, row, "path", m[5], path)
		spread := make([]string, len(r.Spread))
		for j, n := range r.Spread {
			spread[j] = strconv.Itoa(n)
		}
		quoted(t, file, row, "spread", m[6], strings.Join(spread, ", "))
	}
}

func checkMultipathTable(t *testing.T, exp string) {
	const file = "BENCH_multipath.json"
	var res struct {
		Rows []struct {
			Mode        string  `json:"mode"`
			Calls       int     `json:"calls"`
			OKs         int     `json:"oks"`
			OKRate      float64 `json:"ok_rate"`
			Resets      int     `json:"reconnects"`
			CutoverMs   float64 `json:"cutover_ms"`
			MaxGapMs    float64 `json:"max_ok_gap_ms"`
			Evacuated   int     `json:"failover_frames"`
			Repaired    int     `json:"fec_repaired"`
			Unrepaired  int     `json:"fec_unrepaired"`
			RepairRatio float64 `json:"fec_repair_rate"`
		} `json:"rows"`
	}
	loadResult(t, file, &res)
	table := regexp.MustCompile(`(?m)^\| ([a-z-]+) \| (\d+)/(\d+) \| ([\d.]+)% \| (\d+) \| (—|\d+ ms) \| (\d+) ms \| (\d+) \| (—|[\d.]+%) \|$`)
	seen := 0
	for _, m := range submatches(t, exp, "EXPERIMENTS.md", table) {
		for _, r := range res.Rows {
			if r.Mode != m[1] {
				continue
			}
			seen++
			cutover, repair := "—", "—"
			if r.CutoverMs > 0 {
				cutover = itoa(r.CutoverMs) + " ms"
			}
			if r.Repaired+r.Unrepaired > 0 {
				repair = strconv.FormatFloat(100*r.RepairRatio, 'f', 1, 64) + "%"
			}
			quoted(t, file, m[1], "oks", m[2]+"/"+m[3], fmt.Sprintf("%d/%d", r.OKs, r.Calls))
			quoted(t, file, m[1], "ok%", m[4], strconv.FormatFloat(100*r.OKRate, 'f', 1, 64))
			quoted(t, file, m[1], "resets", m[5], strconv.Itoa(r.Resets))
			quoted(t, file, m[1], "cutover", m[6], cutover)
			quoted(t, file, m[1], "worst gap", m[7], itoa(r.MaxGapMs))
			quoted(t, file, m[1], "evacuated", m[8], strconv.Itoa(r.Evacuated))
			quoted(t, file, m[1], "repair%", m[9], repair)
		}
	}
	if seen != len(res.Rows) {
		t.Errorf("EXPERIMENTS.md's multipath table has %d of the artifact's %d modes", seen, len(res.Rows))
	}
}

func checkObsTable(t *testing.T, exp string) {
	const file = "BENCH_obs.json"
	var res struct {
		RecordNs     float64 `json:"record_ns_per_op"`
		RecordAllocs float64 `json:"record_allocs_per_event"`
		DisabledNs   float64 `json:"disabled_ns_per_op"`
		SLONs        float64 `json:"slo_ns_per_observe"`
		SLOAllocs    float64 `json:"slo_allocs_per_observe"`
		Wire         struct {
			FrameNs     float64 `json:"frame_ns"`
			Events      float64 `json:"events_per_frame"`
			OverheadPct float64 `json:"overhead_pct"`
		} `json:"wire"`
	}
	loadResult(t, file, &res)
	table := regexp.MustCompile("(?m)^\\| `RecordAt` \\(enabled\\) \\| ~(\\d+) ns/op, (\\d+) allocs \\|.*\n" +
		"\\| `RecordAt` \\(nil recorder\\) \\| ~(\\d+) ns/op \\|.*\n" +
		"\\| `SLO.Observe` \\| ~(\\d+) ns/op, (\\d+) allocs \\|.*\n" +
		"\\| a sealed frame on the wire, recorder on \\| (\\d+) ns/frame, ([\\d.]+) events/frame \\| < 2% overhead \\(([\\d.]+)%\\) \\|$")
	for _, m := range submatches(t, exp, "EXPERIMENTS.md", table) {
		quoted(t, file, "RecordAt", "ns/op", m[1], itoa(res.RecordNs))
		quoted(t, file, "RecordAt", "allocs", m[2], itoa(res.RecordAllocs))
		quoted(t, file, "nil RecordAt", "ns/op", m[3], itoa(res.DisabledNs))
		quoted(t, file, "SLO.Observe", "ns/op", m[4], itoa(res.SLONs))
		quoted(t, file, "SLO.Observe", "allocs", m[5], itoa(res.SLOAllocs))
		quoted(t, file, "sealed frame", "ns/frame", m[6], itoa(res.Wire.FrameNs))
		quoted(t, file, "sealed frame", "events/frame", m[7], strconv.FormatFloat(res.Wire.Events, 'f', 2, 64))
		quoted(t, file, "sealed frame", "overhead", m[8], strconv.FormatFloat(res.Wire.OverheadPct, 'f', 2, 64))
	}
}

func checkCityTable(t *testing.T, exp string) {
	const file = "BENCH_city.json"
	var res struct {
		Candidates int `json:"candidate_sites"`
		Rows       []struct {
			Mode      string  `json:"mode"`
			Sites     int     `json:"sites"`
			Offloads  int     `json:"offloads"`
			Shed      int     `json:"shed"`
			Hold      float64 `json:"hold_rate"`
			CrowdHold float64 `json:"crowd_hold_rate"`
			P50       float64 `json:"p50_ms"`
			P95       float64 `json:"p95_ms"`
			P99       float64 `json:"p99_ms"`
		} `json:"rows"`
	}
	loadResult(t, file, &res)
	modes := map[string]string{"greedy placement": "placement", "distant cloud (25 ms)": "cloud"}
	table := regexp.MustCompile(`(?m)^\| (greedy placement|distant cloud \(25 ms\)) \| (—|\d+ of \d+) \| ([\d ]+) \| \*\*([\d.]+)%\*\* \| ([\d.]+)% \| ([\d ]+) \| (\d+) ms / (\d+) ms / (\d+) ms \|$`)
	seen := 0
	for _, m := range submatches(t, exp, "EXPERIMENTS.md", table) {
		for _, r := range res.Rows {
			if r.Mode != modes[m[1]] {
				continue
			}
			seen++
			sites := "—"
			if r.Sites > 0 {
				sites = fmt.Sprintf("%d of %d", r.Sites, res.Candidates)
			}
			pct := func(f float64) string { return strconv.FormatFloat(100*f, 'f', 1, 64) }
			quoted(t, file, m[1], "|C|", m[2], sites)
			quoted(t, file, m[1], "offloads", strings.ReplaceAll(m[3], " ", ""), strconv.Itoa(r.Offloads))
			quoted(t, file, m[1], "hold", m[4], pct(r.Hold))
			quoted(t, file, m[1], "crowd-window hold", m[5], pct(r.CrowdHold))
			quoted(t, file, m[1], "shed", strings.ReplaceAll(m[6], " ", ""), strconv.Itoa(r.Shed))
			quoted(t, file, m[1], "p50/p95/p99", m[7]+"/"+m[8]+"/"+m[9], itoa(r.P50)+"/"+itoa(r.P95)+"/"+itoa(r.P99))
		}
	}
	if seen != len(res.Rows) {
		t.Errorf("EXPERIMENTS.md's city table has %d of the artifact's %d modes", seen, len(res.Rows))
	}
}

// TestSectionVIHMatchesDocs renders Section VI-H at the seed EXPERIMENTS.md
// quotes (marbench's default, 42) and holds the FQ-CoDel and StrictPriority
// rows to the table's current values — the last of each "old → new" cell.
// These rows are what the CoDel law and the priority queue decide; the
// DropTail row moves with anything that enters its ten-second queue.
func TestSectionVIHMatchesDocs(t *testing.T) {
	res := experiments.SectionVIH(42)
	now := `(?:[\d.]+%? → )?([\d.]+)`
	table := regexp.MustCompile(`(?m)^\| (FQ-CoDel|StrictPriority) \| ` + now + ` ms \| ` + now + ` ms \| ` + now + `% \| ` + now + ` Mb/s \|$`)
	seen := 0
	for _, m := range submatches(t, readFile(t, "EXPERIMENTS.md"), "EXPERIMENTS.md", table) {
		for _, r := range res.Rows {
			if r.Discipline != m[1] {
				continue
			}
			seen++
			got := []string{
				strconv.FormatFloat(float64(r.MARp50)/1e6, 'f', 1, 64),
				strconv.FormatFloat(float64(r.MARp99)/1e6, 'f', 1, 64),
				strconv.FormatFloat(100*r.MARLoss, 'f', 0, 64),
				strconv.FormatFloat(r.BulkMbps, 'f', 2, 64),
			}
			for i, what := range []string{"MAR p50", "MAR p99", "MAR loss", "bulk goodput"} {
				if m[2+i] != got[i] {
					t.Errorf("EXPERIMENTS.md %s: %s reads %s, SectionVIH(42) gives %s", m[1], what, m[2+i], got[i])
				}
			}
		}
	}
	if seen != 2 {
		t.Errorf("EXPERIMENTS.md's Section VI-H table has %d of the FQ-CoDel and StrictPriority rows", seen)
	}
}

// TestOffloadFiguresMatchDocs renders Table II and Figure 5 at the seed
// EXPERIMENTS.md quotes (marbench's default, 42) and holds every row of
// both tables to them — the last of each "old → new" cell.
func TestOffloadFiguresMatchDocs(t *testing.T) {
	exp := readFile(t, "EXPERIMENTS.md")
	ms := func(d time.Duration) string { return strconv.FormatFloat(float64(d)/1e6, 'f', 1, 64) }
	now := `(?:[\d.]+ → )?([\d.]+)`

	t2 := experiments.TableII(42)
	table := regexp.MustCompile(`(?m)^\| ([A-Za-z]+ server / (?:WiFi|LTE)) \| (\d+) ms \| ` + now + ` ms \|$`)
	seen := 0
	for _, m := range submatches(t, exp, "EXPERIMENTS.md", table) {
		for _, r := range t2.Rows {
			if !strings.EqualFold(m[1], r.Platform+" / "+r.Connection) {
				continue
			}
			seen++
			if paper := strconv.Itoa(int(r.PaperRTT / time.Millisecond)); m[2] != paper {
				t.Errorf("EXPERIMENTS.md Table II %s: paper RTT reads %s ms, the study quotes %s ms", m[1], m[2], paper)
			}
			if got := ms(r.LinkRTT); m[3] != got {
				t.Errorf("EXPERIMENTS.md Table II %s: RTT reads %s ms, TableII(42) gives %s ms", m[1], m[3], got)
			}
		}
	}
	if seen != len(t2.Rows) {
		t.Errorf("EXPERIMENTS.md's Table II has %d of the study's %d rows", seen, len(t2.Rows))
	}

	f5 := experiments.Figure5(42)
	table = regexp.MustCompile(`(?m)^\| ((?:cloud only|5[a-d]) [^|]*) \| ` + now + ` ms \| ` + now + `% \|$`)
	seen = 0
	for _, m := range submatches(t, exp, "EXPERIMENTS.md", table) {
		for _, r := range f5.Rows {
			if !strings.HasPrefix(m[1], r.Scenario) {
				continue
			}
			seen++
			if got := ms(r.MeanLat); m[2] != got {
				t.Errorf("EXPERIMENTS.md Figure 5 %s: mean latency reads %s ms, Figure5(42) gives %s ms", m[1], m[2], got)
			}
			if got := strconv.FormatFloat(math.Round(1000*r.HitRate)/10, 'f', -1, 64); m[3] != got {
				t.Errorf("EXPERIMENTS.md Figure 5 %s: ≤75 ms reads %s%%, Figure5(42) gives %s%%", m[1], m[3], got)
			}
		}
	}
	if seen != len(f5.Rows) {
		t.Errorf("EXPERIMENTS.md's Figure 5 table has %d of the study's %d rows", seen, len(f5.Rows))
	}
}
