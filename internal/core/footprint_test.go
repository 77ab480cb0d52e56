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
// Nor do edges carry an effect index: no query looks an edge up by effect.
func TestRunTablesHaveNoRunIndex(t *testing.T) {
	sys, err := Open(t.TempDir(), Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, unread := range []struct{ table, index string }{
		{"prov_nodes", "run_id"},
		{"prov_edges", "run_id"},
		{"prov_history", "run_id"},
		{"trace_spans", "run_id"},
		{"prov_edges", "effect"},
	} {
		table := sys.DB.Table(unread.table)
		if table == nil {
			t.Fatalf("no table %s", unread.table)
		}
		if table.HasIndex(unread.index) {
			t.Errorf("%s has a %s index", unread.table, unread.index)
		}
	}
}

// TestHistoryBytesPerRun bounds the history one fixed-seed, 200-name
// in-process detection stores: at most 16 rows and 75 KB of payload, with
// every name on record. Each fact is stored once — only run-started names the
// workflow, a completion whose outputs its elements already hold stores none,
// and the one batch-form call that resolves the names is one iteration-batch
// row. With an iteration-element row per name the run stored 208 rows and
// 98.7 KB; repeating the outputs and the workflow as well took 141 KB.
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
	// The layout provenance gives the table: key (run/seq), run_id, seq,
	// payload.
	schema := storage.MustSchema("prov_history",
		storage.Column{Name: "key", Kind: storage.KindString},
		storage.Column{Name: "run_id", Kind: storage.KindString},
		storage.Column{Name: "seq", Kind: storage.KindInt},
		storage.Column{Name: "payload", Kind: storage.KindBytes})
	prefix := outcome.RunID + "/"
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
	events, err := sys.Provenance.History(outcome.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if n := recordedElements(events, "Catalog_of_life"); n != 200 {
		t.Fatalf("history records %d of the 200 names", n)
	}
	if rows > 16 {
		t.Fatalf("%d history rows for one 200-name run, want <= 16", rows)
	}
	if payload > 75*1024 {
		t.Fatalf("history payload %.1f KB per run, want <= 75 KB", float64(payload)/1024)
	}
}
