package testbed

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	_ "saath/internal/sched/aalo" // register aalo (fig15's baseline)
	"saath/internal/study"
)

// TestFig15ShardMergeGolden: the testbed figures (Figs 15/16, through
// the real coordinator on the virtual clock) run as shard 0/2 + shard
// 1/2 and merged render byte-identical to the unsharded run, and the
// run completes all twelve coflows under both policies with Saath's
// median speedup over Aalo at least 1.
func TestFig15ShardMergeGolden(t *testing.T) {
	ctx := context.Background()
	st := mustBuild(t, "fig15")
	summaryJSON := func(res *study.Result) []byte {
		var buf bytes.Buffer
		if err := res.Summary().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	whole, err := st.Run(ctx, study.Pool{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Err(); err != nil {
		t.Fatal(err)
	}
	wantJS, wantTables := summaryJSON(whole), renderAll(t, whole)
	for _, want := range []string{"Fig 15 — [testbed] CDF", "Fig 16 — [testbed] JCT speedup"} {
		if !bytes.Contains(wantTables, []byte(want)) {
			t.Fatalf("fig15 tables missing %q:\n%s", want, wantTables)
		}
	}
	tables, err := whole.Tables()
	if err != nil {
		t.Fatal(err)
	}
	summary := tables[1].Rows[0] // median, mean, p90, n
	var median float64
	if _, err := fmt.Sscan(summary[0], &median); err != nil || median < 1 || summary[3] != "12" {
		t.Errorf("fig15 summary %v: want median ≥ 1 over 12 coflows", summary)
	}

	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		sh := study.Sharded{Index: i, Count: 2, Pool: study.Pool{Parallel: 2}}
		res, err := st.Run(ctx, sh)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.WriteShardFile(dir, sh); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := study.MergeShardDir(st, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryJSON(merged); !bytes.Equal(got, wantJS) {
		t.Error("fig15 summary JSON differs between sharded and unsharded runs")
	}
	if got := renderAll(t, merged); !bytes.Equal(got, wantTables) {
		t.Errorf("fig15 tables differ:\n--- single ---\n%s\n--- merged ---\n%s", wantTables, strings.TrimSpace(string(got)))
	}
}
