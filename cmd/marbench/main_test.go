package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"marnet/internal/experiments"
)

// `make bench` at smoke scale: the five studies with an artifact each write
// one under -out, and every artifact says where it came from. The shard
// study runs one 2-shard row: the full curve carries a ratio a host with
// four CPUs is held to, which is `make bench`'s to enforce, not tier-1's.
func TestOutWritesStampedArtifacts(t *testing.T) {
	table := append([]study(nil), studies...)
	for i := range table {
		if table[i].name == "shards" {
			table[i].run = func(o options) result { return experiments.ShardsAt(o.seed, []int{2}, 4000, 500) }
		}
	}
	dir := filepath.Join(t.TempDir(), "artifacts")
	args := []string{"-out", dir, "-city-users", "2000", "-city-minutes", "1",
		"shards", "adapt", "multipath", "obsload", "city"}
	if err := marbench(args, table, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"shards", "adapt", "multipath", "obs", "city"} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var doc struct {
			Provenance struct {
				Commit    string `json:"commit"`
				Sources   string `json:"sources"`
				GoVersion string `json:"go_version"`
				NumCPU    int    `json:"num_cpu"`
			} `json:"provenance"`
			Result map[string]any `json:"result"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Errorf("BENCH_%s.json: %v", name, err)
			continue
		}
		if p := doc.Provenance; p.Commit == "" || p.GoVersion == "" || p.NumCPU < 1 {
			t.Errorf("BENCH_%s.json: provenance %+v incomplete", name, p)
		}
		if p := doc.Provenance; strings.HasSuffix(p.Commit, "+dirty") != (p.Sources != "") {
			t.Errorf("BENCH_%s.json: commit %q with sources %q: a dirty tree, and only a dirty tree, names its sources", name, p.Commit, p.Sources)
		}
		if len(doc.Result) == 0 {
			t.Errorf("BENCH_%s.json: empty result", name)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 5 {
		t.Errorf("%d files under -out, want the 5 artifacts", len(files))
	}
}

// The sources stamp is the documented shell pipeline's, so anyone can check
// an artifact against a checkout without this program.
func TestSourcesDigestMatchesPipeline(t *testing.T) {
	got := sourcesDigest()
	if got == "" {
		t.Skip("not in a git checkout")
	}
	out, err := exec.Command("sh", "-c",
		`cd "$(git rev-parse --show-toplevel)" && git ls-files -z '*.go' | xargs -0 sha256sum | sha256sum`).Output()
	if err != nil {
		t.Skip("no shell pipeline to compare with:", err)
	}
	if want := string(out[:12]); got != want {
		t.Fatalf("sourcesDigest() = %s, the pipeline prints %s", got, want)
	}
}

type verdict bool

func (v verdict) Format() string { return "verdict" }
func (v verdict) Pass() bool     { return bool(v) }

// A name the table does not know and a gate that does not hold both fail
// the run (main turns the error into a non-zero exit), and a failed study
// leaves no artifact behind.
func TestUnknownStudyAndFailedGateFail(t *testing.T) {
	table := []study{
		{name: "good", artifact: "good", run: func(options) result { return verdict(true) }},
		{name: "bad", artifact: "bad", run: func(options) result { return verdict(false) }},
		{name: "slowhook", run: func(options) result {
			return experiments.ObsLoadResult{DisabledNsPerOp: 12, CodecRoundTrip: true, Deterministic: true,
				FlightSnapshots: 1, FlightStormSeen: true, FlightSLOFired: true}
		}},
	}
	dir := t.TempDir()
	if err := marbench([]string{"-out", dir, "good"}, table, io.Discard); err != nil {
		t.Errorf("passing study: %v", err)
	}
	if err := marbench([]string{"good", "wire"}, table, io.Discard); err == nil || !strings.Contains(err.Error(), `"wire"`) {
		t.Errorf("unknown study: err = %v", err)
	}
	if err := marbench([]string{"-out", dir, "bad"}, table, io.Discard); err == nil {
		t.Error("a failed gate did not fail the run")
	}
	if err := marbench([]string{"slowhook"}, table, io.Discard); err == nil || !strings.Contains(err.Error(), "disabled hook 12.00 ns/op") {
		t.Errorf("a failed obsload gate: err = %v, want it named", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_bad.json")); err == nil {
		t.Error("a study that failed its gate still wrote its artifact")
	}
}
