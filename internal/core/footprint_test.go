package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestRunTablesHaveNoRunIndex: in a fresh directory the run-keyed tables —
// provenance nodes, edges and history, and the span table — carry no run_id
// index. Their keys are "runID/…", so a run's rows are one primary-key range,
// and an index would hold each row's run ID once more for nothing to read.
func TestRunTablesHaveNoRunIndex(t *testing.T) {
	sys, err := Open(t.TempDir(), Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, name := range []string{"prov_nodes", "prov_edges", "prov_history", "trace_spans"} {
		table := sys.DB.Table(name)
		if table == nil {
			t.Fatalf("no table %s", name)
		}
		if table.HasIndex("run_id") {
			t.Errorf("%s has a run_id index", name)
		}
	}
}

// TestHistoryBytesPerRun bounds the history payload one fixed-seed, 200-name
// in-process detection stores: at most 105 KB. Each fact is stored once —
// only run-started names the workflow, and a completion whose outputs its
// iteration-element events already hold stores none. Repeating both took
// 141 KB.
func TestHistoryBytesPerRun(t *testing.T) {
	sys, taxa, _ := testSystem(t, 1000, 200)
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{SkipLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.DistinctNames != 200 {
		t.Fatalf("%d distinct names, want 200", outcome.DistinctNames)
	}
	history := sys.DB.Table("prov_history")
	schema, prefix := history.Schema(), outcome.RunID+"/"
	payload, rows := 0, 0
	history.ScanFrom(storage.S(prefix), func(row storage.Row) bool {
		if !strings.HasPrefix(row.Get(schema, "key").Str(), prefix) {
			return false
		}
		payload += len(row.Get(schema, "payload").Raw())
		rows++
		return true
	})
	t.Logf("%d history rows, %.1f KB of payload", rows, float64(payload)/1024)
	if rows < 200 {
		t.Fatalf("%d history rows for 200 names", rows)
	}
	if payload > 105*1024 {
		t.Fatalf("history payload %.1f KB per run, want <= 105 KB", float64(payload)/1024)
	}
}
