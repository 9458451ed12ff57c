package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// Verdicts of one (end-to-end metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare's table.
type comparison struct {
	Workload, Metric string
	Old, New         float64 // medians
	OldN, NewN       int
	Ratio            float64 // new ÷ old
	Worse            float64 // share of old by which new is worse (negative: better)
	Spread           float64 // widest interquartile distance ÷ median of the two sides
	Bound            float64
	Verdict          string
}

// judge compares the runs of one metric on one workload. The change is a
// regression when its median is worse than the parent's by more than the
// bound. When the runs of either side spread wider than the bound the
// medians cannot carry that verdict: the pair is unresolved, unless every
// new run is better than every old one (ok) or every new run is worse
// than every old one and the medians differ by more than the bound
// (regressed).
func judge(def metricDef, old, new []float64) comparison {
	c := comparison{Metric: def.Name, Old: median(old), New: median(new), OldN: len(old), NewN: len(new), Bound: def.Bound}
	if c.Old != 0 {
		c.Ratio = c.New / c.Old
		c.Worse = (c.New - c.Old) / math.Abs(c.Old)
		if def.Better == higher {
			c.Worse = -c.Worse
		}
	}
	c.Spread = max(spreadOf(old), spreadOf(new))
	better := func(a, b float64) bool { // a better than b
		if def.Better == higher {
			return a > b
		}
		return a < b
	}
	allNew := func(rel func(n, o float64) bool) bool {
		for _, n := range new {
			for _, o := range old {
				if !rel(n, o) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case c.Spread > c.Bound && allNew(better):
		c.Verdict = verdictOK
	case c.Spread > c.Bound && !(c.Worse > c.Bound && allNew(func(n, o float64) bool { return better(o, n) })):
		c.Verdict = verdictUnresolved
	case c.Worse > c.Bound:
		c.Verdict = verdictRegressed
	default:
		c.Verdict = verdictOK
	}
	return c
}

// runs maps workload → end-to-end metric → one value per run.
type runs map[string]map[string][]float64

// loadRuns reads every result document in the files a side names: a
// comma-separated list of paths or globs, each file holding one or more
// JSON documents (a single run's output holds the document and then the
// contract line, which is skipped).
func loadRuns(side string) (runs, error) {
	out := runs{}
	var files []string
	for _, pat := range strings.Split(side, ",") {
		m, err := filepath.Glob(pat)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pat, err)
		}
		if len(m) == 0 {
			return nil, fmt.Errorf("%s: no such file", pat)
		}
		files = append(files, m...)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bufio.NewReader(f))
		for {
			var doc document
			if err := dec.Decode(&doc); err == io.EOF {
				break
			} else if err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			for wl, res := range doc.Workloads {
				for metric, p := range res.EndToEnd {
					if out[wl] == nil {
						out[wl] = map[string][]float64{}
					}
					out[wl][metric] = append(out[wl][metric], p.Value)
				}
			}
		}
		f.Close()
	}
	return out, nil
}

// compareRuns judges every (end-to-end metric, workload) pair both sides
// measured, in the benchmark's own order.
func compareRuns(old, new runs) []comparison {
	var out []comparison
	for _, spec := range workloads {
		for _, def := range endToEnd {
			o, n := old[spec.name][def.Name], new[spec.name][def.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			c := judge(def, o, n)
			c.Workload = spec.name
			out = append(out, c)
		}
	}
	return out
}

// compareFiles prints the verdict table and reports whether any pair
// regressed.
func compareFiles(w io.Writer, oldSide, newSide string) (regressed bool, err error) {
	old, err := loadRuns(oldSide)
	if err != nil {
		return false, err
	}
	new, err := loadRuns(newSide)
	if err != nil {
		return false, err
	}
	rows := compareRuns(old, new)
	if len(rows) == 0 {
		return false, fmt.Errorf("the two sides share no end-to-end results")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told (median of n)\tnew (median of n)\tnew/old\tworse by\tspread\tbound\tverdict")
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g (%d)\t%.6g (%d)\t%.4f\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n",
			c.Workload, c.Metric, c.Old, c.OldN, c.New, c.NewN, c.Ratio, 100*c.Worse, 100*c.Spread, 100*c.Bound, c.Verdict)
		regressed = regressed || c.Verdict == verdictRegressed
	}
	return regressed, tw.Flush()
}
