package experiments

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestShardStudySmoke stands the 2-shard datapath up through the exported
// API, moves packets and tears it down; the full 1/2/4/8 curve runs in
// `make bench`. The ratio and its floor are printed only where they are
// enforced: on a host too small to scale they must be absent, not waived.
func TestShardStudySmoke(t *testing.T) {
	r := ShardsAt(1, []int{2}, 4000, 500)
	if r.Err != "" {
		t.Fatalf("study failed: %s", r.Err)
	}
	if len(r.Rows) != 1 || r.Rows[0].Shards != 2 {
		t.Fatalf("rows = %+v, want one 2-shard row", r.Rows)
	}
	row := r.Rows[0]
	if row.Delivered == 0 || row.Delivered > int64(r.Packets) {
		t.Fatalf("delivered %d of %d", row.Delivered, r.Packets)
	}
	var sum int64
	for _, n := range row.ShardSpread {
		sum += n
	}
	if len(row.ShardSpread) != 2 || sum != row.Delivered {
		t.Errorf("shard spread %v sums to %d, delivered %d", row.ShardSpread, sum, row.Delivered)
	}
	if !r.Pass() {
		t.Error("a study with no ratio to enforce did not pass")
	}

	// A 1-shard and a 4-shard row make the ratio computable; whether it is
	// reported depends on the host alone.
	r = ShardsAt(1, []int{1, 4}, 2000, 500)
	if r.Err != "" {
		t.Fatalf("study failed: %s", r.Err)
	}
	doc, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	out := string(doc) + r.Format()
	gated := runtime.NumCPU() >= shardGateCPUs
	for _, field := range []string{"speedup_4_shards", "min_speedup_4_shards", "4-shard / 1-shard", "waived"} {
		if want := gated && field != "waived"; strings.Contains(out, field) != want {
			t.Errorf("%d CPUs: %q present = %v, want %v\n%s", runtime.NumCPU(), field, !want, want, out)
		}
	}
}
