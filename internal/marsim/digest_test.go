package marsim

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"marnet/internal/overload"
	"marnet/internal/rpc"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/trace_digests.txt from this tree")

const digestFile = "testdata/trace_digests.txt"

// sortedDigest is the order-insensitive identity of a trace: FNV-1a over its
// lines in byte order. Two traces with the same lines — the same packets and
// log calls at the same microseconds — have the same digest however the
// events of one instant were interleaved.
func sortedDigest(trace []byte) uint64 {
	lines := bytes.Split(bytes.TrimSuffix(trace, []byte{'\n'}), []byte{'\n'})
	slices.SortFunc(lines, bytes.Compare)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write(l)            //nolint:errcheck // hash.Hash never errors
		h.Write([]byte{'\n'}) //nolint:errcheck
	}
	return h.Sum64()
}

// resultDigest folds every counter of a Result — everything but the trace
// itself — into one value.
func resultDigest(r *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v %d %d %d %d %+v %+v %+v %+v",
		r.SimTime, r.Calls, r.OKs, r.Fails, r.Reconnects, r.Transitions, simClientCounters(r.Client), simServerCounters(r.Server), r.Tiers)
	return h.Sum64()
}

// clientCounters prints, under %+v, exactly as rpc.ClientStats did before
// its unread counters were deleted: the column hashes the text, and
// HedgeWins, BreakerFastFails, BreakerOpens, ServerSheds and ServerDraining
// read 0 in every scenario the digests pin.
type clientCounters struct {
	Calls, Timeouts, ShedCalls, Retries, Hedges, HedgeWins, BreakerFastFails, BreakerOpens, Reconnects int64

	Degraded, ServerSheds, ServerExpired, ServerCannotFinish, ServerDraining int64
}

func simClientCounters(st rpc.ClientStats) clientCounters {
	return clientCounters{Calls: st.Calls, Timeouts: st.Timeouts, ShedCalls: st.ShedCalls, Retries: st.Retries,
		Hedges: st.Hedges, Reconnects: st.Reconnects, Degraded: st.Degraded,
		ServerExpired: st.ServerExpired, ServerCannotFinish: st.ServerCannotFinish}
}

// serverCounters prints, under %+v, exactly as rpc.ServerStats did before it
// counted calls served on a reader goroutine: the column hashes the text,
// and Inline is 0 on the simulator, whose transports report no backlog.
type serverCounters struct {
	Served, Degraded, Probes, ExpiredOnArrival, ExpiredInQueue, Shed, QueueFull, CannotFinish, Draining int64

	Gate overload.GateStats
}

func simServerCounters(st rpc.ServerStats) serverCounters {
	return serverCounters{st.Served, st.Degraded, st.Probes, st.ExpiredOnArrival, st.ExpiredInQueue,
		st.Shed, st.QueueFull, st.CannotFinish, st.Draining, st.Gate}
}

// TestTraceDigestsGolden pins the determinism matrix: per scenario and seed,
// the trace's line count, its in-order hash, its order-insensitive digest and
// a digest of the result counters. A change that must not alter protocol
// behaviour leaves all four alone; one that only moves work between events of
// the same virtual instant may move the in-order column and nothing else.
// `go test ./internal/marsim -run TestTraceDigestsGolden -update` rewrites the
// file.
func TestTraceDigestsGolden(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(int64) (*Result, error)
	}{
		{"handover", RunHandover},
		{"congestion", RunCongestion},
		{"partition-resume", RunPartitionResume},
		{"overload-storm", RunOverloadStorm},
		{"soak-1m", func(seed int64) (*Result, error) { return RunSoak(seed, 1) }},
	}
	var got strings.Builder
	got.WriteString("# scenario seed lines in-order sorted results\n")
	for _, sc := range scenarios {
		for seed := int64(1); seed <= 3; seed++ {
			r, err := sc.run(seed)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", sc.name, seed, err)
			}
			if r.Server.Inline != 0 {
				t.Errorf("%s seed=%d: the simulated server served %d calls on a reader goroutine", sc.name, seed, r.Server.Inline)
			}
			fmt.Fprintf(&got, "%s %d %d %016x %016x %016x\n", sc.name, seed,
				bytes.Count(r.Trace, []byte{'\n'}), r.TraceHash, sortedDigest(r.Trace), resultDigest(r))
		}
	}
	if *updateDigests {
		if err := os.WriteFile(digestFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, this tree produces %d; rerun with -update", digestFile, len(wantLines), len(gotLines))
	}
	columns := []string{"scenario", "seed", "lines", "in-order hash", "sorted digest", "result counters"}
	for i := range wantLines {
		if gotLines[i] == wantLines[i] {
			continue
		}
		g, w := strings.Fields(gotLines[i]), strings.Fields(wantLines[i])
		if len(g) != len(columns) || len(w) != len(columns) {
			t.Errorf("line %d: got %q, want %q", i+1, gotLines[i], wantLines[i])
			continue
		}
		for c := range columns {
			if g[c] != w[c] {
				t.Errorf("%s seed %s: %s moved: %s -> %s", w[0], w[1], columns[c], w[c], g[c])
			}
		}
	}
}
