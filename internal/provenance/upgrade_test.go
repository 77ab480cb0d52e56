package provenance

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/opm"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// previousLayout is what the previous version created in a fresh directory:
// the provenance and span tables with today's schemas, and a run_id index on
// each run-keyed table besides the lineage, workflow and status indexes.
func previousLayout() []storage.Op {
	spans := storage.MustSchema("trace_spans",
		storage.Column{Name: "key", Kind: storage.KindString},
		storage.Column{Name: "run_id", Kind: storage.KindString},
		storage.Column{Name: "span_id", Kind: storage.KindString},
		storage.Column{Name: "parent_id", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "name", Kind: storage.KindString},
		storage.Column{Name: "kind", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "start", Kind: storage.KindTime},
		storage.Column{Name: "end", Kind: storage.KindTime},
		storage.Column{Name: "attrs", Kind: storage.KindBytes, Nullable: true},
	)
	return []storage.Op{
		storage.CreateTableOp(runsSchema),
		storage.CreateTableOp(nodesSchema),
		storage.CreateTableOp(edgesSchema),
		storage.CreateIndexOp(nodesTable, "run_id"),
		storage.CreateIndexOp(edgesTable, "run_id"),
		storage.CreateIndexOp(runsTable, "workflow_id"),
		storage.CreateIndexOp(edgesTable, "effect"),
		storage.CreateIndexOp(edgesTable, "cause"),
		storage.CreateTableOp(historySchema),
		storage.CreateIndexOp(historyTable, "run_id"),
		storage.CreateIndexOp(runsTable, "status"),
		storage.CreateTableOp(spans),
		storage.CreateIndexOp(spans.Table, "run_id"),
	}
}

// previousEvents renders a history as the previous version stored it: every
// event names the workflow, and every completion restates its outputs.
func previousEvents(t *testing.T, history []workflow.HistoryEvent) []workflow.HistoryEvent {
	t.Helper()
	out := slices.Clone(history)
	var fold workflow.HistoryFold
	restated := 0
	for i := range out {
		fa := fold.Apply(out[i])
		out[i].WorkflowID, out[i].WorkflowName = history[0].WorkflowID, history[0].WorkflowName
		if out[i].Type == workflow.HistoryActivityCompleted && len(out[i].Outputs) == 0 {
			out[i].Outputs = fa.Outputs
			restated++
		}
	}
	if restated == 0 {
		t.Fatal("no completion omits its outputs: nothing to restate")
	}
	return out
}

// TestOpensPreviousVersionDirectory is the upgrade guard. A directory is
// built by hand in the previous version's layout — run_id indexes on every
// run-keyed table, every history event naming the workflow, completions
// restating their outputs — holding one finished run with its graph and
// spans and one unfinished run. Reopened by this version, it reads back
// exactly what was written through Graph, NodesPage, EdgesPage, History and
// the span reads, keeps its run_id indexes, and resumes the unfinished run to
// the canonical graph of an uninterrupted one.
func TestOpensPreviousVersionDirectory(t *testing.T) {
	def, inputs := detectionDef(), detectionInputs()
	src, _ := openRepo(t)
	done, _, err := captureRun(t, src, def, inputs, detectionRegistry(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cut, _, err := captureRun(t, src, def, inputs, detectionRegistry(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	doneInfo, err := src.Run(done)
	if err != nil {
		t.Fatal(err)
	}
	doneGraph, err := src.Graph(done)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalRun(doneGraph, done)
	read := func(id string) []workflow.HistoryEvent {
		h, err := src.History(id)
		if err != nil {
			t.Fatal(err)
		}
		return previousEvents(t, h)
	}
	doneHistory, cutHistory := read(done), read(cut)
	// The unfinished run stopped two events into its second activity, after
	// its first completion (which restates its outputs).
	first := slices.IndexFunc(cutHistory, func(ev workflow.HistoryEvent) bool {
		return ev.Type == workflow.HistoryActivityCompleted
	})
	cutHistory = cutHistory[:first+3]

	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Apply(previousLayout()...); err != nil {
		t.Fatal(err)
	}
	var b rowBuilder
	b.run(storage.InsertOp, doneInfo)
	for i := range doneHistory {
		if err := b.history(done, &doneHistory[i]); err != nil {
			t.Fatal(err)
		}
	}
	b.graph(done, doneGraph)
	start := cutHistory[0]
	b.run(storage.InsertOp, RunInfo{RunID: cut, WorkflowID: start.WorkflowID, WorkflowName: start.WorkflowName,
		StartedAt: start.Time, Status: RunRunning})
	for i := range cutHistory {
		if err := b.history(cut, &cutHistory[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Apply(b.ops...); err != nil {
		t.Fatal(err)
	}
	spans := []telemetry.Span{
		{SpanID: "s1", Name: "workflow", Kind: "engine", Start: doneInfo.StartedAt, End: doneInfo.FinishedAt},
		{SpanID: "s2", ParentID: "s1", Name: "activity:Normalize", Kind: "engine", Start: doneInfo.StartedAt, End: doneInfo.FinishedAt},
		{SpanID: "s3", ParentID: "s1", Name: "activity:Catalog_of_life", Kind: "engine", Start: doneInfo.StartedAt, End: doneInfo.FinishedAt,
			Attrs: map[string]string{"iterations": "3"}},
	}
	if st, err := telemetry.NewSpanStore(db); err != nil {
		t.Fatal(err)
	} else if err := st.Append(done, spans); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	repo, err := NewRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := telemetry.NewSpanStore(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{nodesTable, edgesTable, historyTable, "trace_spans"} {
		if !db.Table(name).HasIndex("run_id") {
			t.Errorf("%s lost its run_id index", name)
		}
	}

	g, err := repo.Graph(done)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, doneGraph, g)
	var nodes []string
	for after := ""; ; {
		page, next, err := repo.NodesPage(done, after, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range page {
			nodes = append(nodes, n.ID)
		}
		if after = next; after == "" {
			break
		}
	}
	var wantNodes []string
	for _, n := range doneGraph.Nodes() {
		wantNodes = append(wantNodes, n.ID)
	}
	if !slices.Equal(nodes, wantNodes) {
		t.Errorf("NodesPage walk = %v, want %v", nodes, wantNodes)
	}
	var edges []opm.Edge
	for after := -1; ; {
		page, next, err := repo.EdgesPage(done, after, 5)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, page...)
		if after = next; after < 0 {
			break
		}
	}
	if !slices.EqualFunc(edges, doneGraph.Edges(), func(a, b opm.Edge) bool {
		return a.Time.Equal(b.Time) && a.Kind == b.Kind && a.Effect == b.Effect && a.Cause == b.Cause &&
			a.Role == b.Role && a.Account == b.Account
	}) {
		t.Errorf("EdgesPage walk = %v, want %v", edges, doneGraph.Edges())
	}
	for id, wantHistory := range map[string][]workflow.HistoryEvent{done: doneHistory, cut: cutHistory} {
		got, err := repo.History(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantHistory) {
			t.Fatalf("History(%s) has %d events, want %d", id, len(got), len(wantHistory))
		}
		for i := range got {
			g, _ := got[i].AppendJSON(nil)
			w, _ := wantHistory[i].AppendJSON(nil)
			if !bytes.Equal(g, w) {
				t.Fatalf("History(%s)[%d]:\n got %s\nwant %s", id, i, g, w)
			}
		}
	}
	gotSpans, err := traces.Spans(done)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := traces.Count(done); err != nil || n != len(spans) || len(gotSpans) != len(spans) {
		t.Fatalf("spans: Count %d (%v), Spans %d, want %d", n, err, len(gotSpans), len(spans))
	}
	for i, sp := range gotSpans {
		if sp.SpanID != spans[i].SpanID || sp.ParentID != spans[i].ParentID || sp.Name != spans[i].Name ||
			!sp.End.Equal(spans[i].End) || sp.Attrs["iterations"] != spans[i].Attrs["iterations"] {
			t.Errorf("span %d = %+v, want %+v", i, sp, spans[i])
		}
	}

	if err := resumeRun(t, repo, cut, def, inputs, detectionRegistry(), 1); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if info, err := repo.Run(cut); err != nil || info.Status != RunCompleted || info.WorkflowID != def.ID {
		t.Fatalf("resumed run = %+v, %v", info, err)
	}
	if got := canonicalRun(assertGraphIsFoldOfHistory(t, repo, cut), cut); got != want {
		t.Errorf("resumed graph differs from an uninterrupted run\nwant:\n%s\ngot:\n%s", want, got)
	}
}
