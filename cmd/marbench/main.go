// Command marbench regenerates every table and figure of the paper and
// prints them in the paper's layout. Run with no arguments for everything,
// or name the studies to run:
//
//	marbench table1 table2 fig2 fig3 fig4 fig5 s3b s4a s4c s4d s6c s6d s6f s6h overload budget shards adapt multipath obsload city
//
// A study with acceptance gates fails the run when one does not hold.
// With -out DIR, each study that has an artifact also writes it there as
// BENCH_<name>.json, stamped with where and from what it was produced.
// The one offloaded call against the 75 ms budget, end to end and layer
// by layer, is benchmark/'s job, not this command's.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"marnet/internal/experiments"
	"marnet/internal/trace"
)

// options are the flags a study may read.
type options struct {
	seed        int64
	cityUsers   int
	cityMinutes float64
}

// result is what every study returns; one that also has a Pass method is
// gated by it.
type result interface{ Format() string }

type study struct {
	name     string
	run      func(options) result
	artifact string // written under -out as BENCH_<artifact>.json; "" = printed only
}

var studies = []study{
	{name: "table1", run: func(options) result { return experiments.TableI() }},
	{name: "table2", run: func(o options) result { return experiments.TableII(o.seed) }},
	{name: "fig2", run: func(o options) result { return experiments.Figure2(o.seed) }},
	{name: "fig3", run: func(o options) result { return experiments.Figure3(o.seed) }},
	{name: "fig4", run: func(o options) result { return experiments.Figure4(o.seed) }},
	{name: "fig5", run: func(o options) result { return experiments.Figure5(o.seed) }},
	{name: "s3b", run: func(options) result { return experiments.SectionIIIB() }},
	{name: "s4a", run: func(o options) result { return experiments.SectionIVA(o.seed) }},
	{name: "s4c", run: func(o options) result { return experiments.SectionIVC(o.seed) }},
	{name: "s4d", run: func(o options) result { return experiments.SectionIVD(o.seed) }},
	{name: "s6c", run: func(o options) result { return experiments.SectionVIC(o.seed) }},
	{name: "s6d", run: func(o options) result { return experiments.SectionVID(o.seed) }},
	{name: "s6f", run: func(o options) result { return experiments.SectionVIF(o.seed) }},
	{name: "s6h", run: func(o options) result { return experiments.SectionVIH(o.seed) }},
	{name: "overload", run: func(o options) result { return experiments.Overload(o.seed) }},
	{name: "budget", run: func(o options) result { return experiments.Budget(o.seed) }},
	// 4-shard delivered packets/s at least 2.5x 1-shard, on hosts with the
	// CPUs to scale.
	{name: "shards", artifact: "shards", run: func(o options) result { return experiments.Shards(o.seed) }},
	// Adaptive beats every fixed tier on fewer bytes than fixed-full, and
	// a same-seed rerun reproduces the decision hash.
	{name: "adapt", artifact: "adapt", run: func(o options) result { return experiments.Adapt(o.seed) }},
	// Both multipath modes survive the blackhole with zero resets, cutover
	// within one keepalive, >= 90% of burst holes repaired, deterministic.
	{name: "multipath", artifact: "multipath", run: func(o options) result { return experiments.Multipath(o.seed) }},
	// Zero allocations per recorded event, a disabled hook that costs
	// nothing measurable, under 2% of a sealed frame.
	{name: "obsload", artifact: "obs", run: func(o options) result { return experiments.ObsLoad(o.seed) }},
	// The placement holds >= 95% of deadlines, beats the cloud baseline,
	// keeps the event queue bounded and, at full scale, finishes inside
	// the wall-time ceiling.
	{name: "city", artifact: "city", run: func(o options) result {
		return experiments.CityAt(o.seed, o.cityUsers, o.cityMinutes)
	}},
}

func main() {
	if err := marbench(os.Args[1:], studies, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "marbench:", err)
		os.Exit(1)
	}
}

// marbench runs the named studies of table (all of them when none is
// named), in table order.
func marbench(args []string, table []study, stdout io.Writer) error {
	fs := flag.NewFlagSet("marbench", flag.ContinueOnError)
	var o options
	fs.Int64Var(&o.seed, "seed", 42, "simulation seed")
	fs.IntVar(&o.cityUsers, "city-users", 0, "city study population (0 = full scale, 100000)")
	fs.Float64Var(&o.cityMinutes, "city-minutes", 0, "city study virtual minutes (0 = full scale, 10)")
	csvDir := fs.String("csv", "", "also write figure series as CSV files into this directory")
	outDir := fs.String("out", "", "write each study's artifact as BENCH_<name>.json into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := make(map[string]bool, fs.NArg())
	for _, a := range fs.Args() {
		want[strings.ToLower(a)] = true
	}
	for name := range want {
		known := false
		for _, st := range table {
			known = known || st.name == name
		}
		if !known {
			return fmt.Errorf("unknown study %q", name)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, st := range table {
		if len(want) > 0 && !want[st.name] {
			continue
		}
		res := st.run(o)
		fmt.Fprintln(stdout, res.Format())
		if gated, ok := res.(interface{ Pass() bool }); ok && !gated.Pass() {
			why := "see above"
			if named, ok := res.(interface{ Failed() string }); ok {
				why = named.Failed()
			}
			return fmt.Errorf("%s study failed acceptance (%s)", st.name, why)
		}
		if *outDir != "" && st.artifact != "" {
			path := filepath.Join(*outDir, "BENCH_"+st.artifact+".json")
			if err := writeArtifact(path, st.name, res); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
	if *csvDir != "" {
		return writeCSVs(*csvDir, o.seed, stdout)
	}
	return nil
}

// provenance is what a number needs before it counts (ROADMAP aim 1).
type provenance struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Sources    string `json:"sources,omitempty"` // digest of the tracked *.go files, when the tree is dirty
}

func writeArtifact(path, name string, res result) error {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	rev, sources := commit()
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Study      string     `json:"study"`
		Result     result     `json:"result"`
	}{
		provenance{Host: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: rev, Sources: sources},
		name, res,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit is the revision the binary was built from: stamped by the go
// tool when it could see the repository, else asked of git, else unknown.
// Uncommitted changes are marked, since the numbers are theirs too, and
// then sources names them: the commit alone is only their parent.
func commit() (rev, sources string) {
	dirty := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		out, err := exec.Command("git", "rev-parse", "HEAD").Output()
		if err != nil {
			return "unknown", ""
		}
		rev = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		dirty = err == nil && len(st) > 0
	}
	if !dirty {
		return rev, ""
	}
	return rev + "+dirty", sourcesDigest()
}

// sourcesDigest is the first 12 hex digits of what
//
//	git ls-files -z '*.go' | xargs -0 sha256sum | sha256sum
//
// prints at the root of the repository: one name for the tracked Go sources
// as they are on disk, so that an artifact made from an uncommitted tree
// still says which sources produced it. Empty when git or a file is missing.
func sourcesDigest() string {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return ""
	}
	root := strings.TrimSpace(string(top))
	files, err := exec.Command("git", "-C", root, "ls-files", "-z", "*.go").Output()
	if err != nil {
		return ""
	}
	all := sha256.New()
	for _, name := range strings.Split(strings.TrimRight(string(files), "\x00"), "\x00") {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			return ""
		}
		fmt.Fprintf(all, "%x  %s\n", sha256.Sum256(data), name)
	}
	return hex.EncodeToString(all.Sum(nil))[:12]
}

// writeCSVs exports the time-series figures (3 and 4) as CSV for external
// plotting.
func writeCSVs(dir string, seed int64, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, series ...*trace.Series) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return trace.WriteCSV(f, series...)
	}
	f3 := experiments.Figure3(seed)
	if err := write("figure3_download_goodput.csv", f3.DownloadGoodput); err != nil {
		return err
	}
	f4 := experiments.Figure4(seed)
	if err := write("figure4_tcp_cwnd.csv", trace.Downsample(f4.TCPCwnd, 500)); err != nil {
		return err
	}
	if err := write("figure4_artp_streams.csv",
		f4.PerStream["metadata"], f4.PerStream["sensors"],
		f4.PerStream["ref-frames"], f4.PerStream["inter-frames"]); err != nil {
		return err
	}
	if err := write("figure4_artp_budget.csv", f4.Budget); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote figure CSVs to %s\n", dir)
	return nil
}
