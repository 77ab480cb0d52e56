package provenance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/opm"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// assertSameGraph fails unless the two graphs are structurally identical:
// same node set (kind, label, value, annotations) and the same edge sequence
// in the same order.
func assertSameGraph(t *testing.T, want, got *opm.Graph) {
	t.Helper()
	wantNodes := map[string]*opm.Node{}
	for _, n := range want.Nodes() {
		wantNodes[n.ID] = n
	}
	gotNodes := map[string]*opm.Node{}
	for _, n := range got.Nodes() {
		gotNodes[n.ID] = n
	}
	if len(wantNodes) != len(gotNodes) {
		t.Fatalf("node count: want %d, got %d", len(wantNodes), len(gotNodes))
	}
	for id, wn := range wantNodes {
		gn, ok := gotNodes[id]
		if !ok {
			t.Fatalf("node %q missing", id)
		}
		if gn.Kind != wn.Kind || gn.Label != wn.Label || gn.Value != wn.Value {
			t.Fatalf("node %q differs: want %+v, got %+v", id, wn, gn)
		}
		if len(gn.Annotations) != len(wn.Annotations) {
			t.Fatalf("node %q annotations: want %v, got %v", id, wn.Annotations, gn.Annotations)
		}
		for k, v := range wn.Annotations {
			if gn.Annotations[k] != v {
				t.Fatalf("node %q annotation %q: want %q, got %q", id, k, v, gn.Annotations[k])
			}
		}
	}
	we, ge := want.Edges(), got.Edges()
	if len(we) != len(ge) {
		t.Fatalf("edge count: want %d, got %d", len(we), len(ge))
	}
	for i := range we {
		if !we[i].Time.Equal(ge[i].Time) {
			t.Fatalf("edge %d time: want %v, got %v", i, we[i].Time, ge[i].Time)
		}
		a, b := we[i], ge[i]
		a.Time, b.Time = time.Time{}, time.Time{}
		if a != b {
			t.Fatalf("edge %d differs: want %+v, got %+v", i, we[i], ge[i])
		}
	}
}

// TestCollectorStreamsHistoryThenGraph pins the stream's shape: one delta
// per history event, in order — RunStarted carrying the first with the run
// row, History the middle ones, RunFinished the last with the terminal run
// row and the collector's final graph.
func TestCollectorStreamsHistoryThenGraph(t *testing.T) {
	col := NewCollector("curator")
	var events []workflow.HistoryEvent
	var deltas []Delta
	col.AddSink(sinkFunc(func(d Delta) error {
		deltas = append(deltas, d)
		return nil
	}))
	res, err := workflow.NewEventEngine(detectionRegistry()).Resume(
		context.Background(), detectionDef(), detectionInputs(), "", nil, col,
		historyFunc(func(ev workflow.HistoryEvent) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != len(events) {
		t.Fatalf("%d deltas for %d history events", len(deltas), len(events))
	}
	for i, d := range deltas {
		want := DeltaHistory
		switch i {
		case 0:
			want = DeltaRunStarted
		case len(deltas) - 1:
			want = DeltaRunFinished
		}
		if d.Kind != want || d.History == nil || d.History.Seq != events[i].Seq || d.History.Type != events[i].Type {
			t.Fatalf("delta %d = kind %d carrying %+v, want kind %d carrying event %d (%s)", i, d.Kind, d.History, want, events[i].Seq, events[i].Type)
		}
		if (d.Graph != nil) != (want == DeltaRunFinished) {
			t.Fatalf("delta %d (kind %d) graph = %v", i, d.Kind, d.Graph)
		}
	}
	if first := deltas[0].Info; first.RunID != res.RunID || first.Status != RunRunning {
		t.Fatalf("run-started info = %+v", first)
	}
	last := deltas[len(deltas)-1]
	if last.Info != col.Info() || last.Info.Status != RunCompleted {
		t.Fatalf("run-finished info = %+v, collector has %+v", last.Info, col.Info())
	}
	assertSameGraph(t, col.Graph(), last.Graph)
}

func TestCollectorGraphIsSnapshot(t *testing.T) {
	col, _ := runCaptured(t, "Hyla faber")
	g1 := col.Graph()
	// Mutating the snapshot must not leak into the collector's live graph.
	if err := g1.AddNode(opm.Node{ID: "a:intruder", Kind: opm.KindArtifact}); err != nil {
		t.Fatal(err)
	}
	if err := g1.Annotate("ag:curator", "tampered", "yes"); err != nil {
		t.Fatal(err)
	}
	g2 := col.Graph()
	if _, ok := g2.Node("a:intruder"); ok {
		t.Fatal("snapshot mutation leaked into collector graph")
	}
	n, _ := g2.Node("ag:curator")
	if n.Annotations["tampered"] != "" {
		t.Fatal("annotation mutation leaked into collector graph")
	}
}

// TestStreamingMatchesLegacyStore is the tentpole equivalence check: one run
// captured once, persisted through both paths — the live BatchWriter delta
// stream and the legacy monolithic Store — must reconstruct identical graphs
// and run records, on one worker and on a pool.
func TestStreamingMatchesLegacyStore(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			repoStream, _ := openRepo(t)
			repoLegacy, _ := openRepo(t)

			col := NewCollector("curator")
			w := repoStream.NewBatchWriter(BatchWriterOptions{MaxBatch: 8, FlushInterval: time.Millisecond})
			col.AddSink(w)
			engine := workflow.NewEventEngine(detectionRegistry())
			engine.Workers = workers
			res, err := engine.Resume(context.Background(), detectionDef(),
				map[string]workflow.Data{"metadata": workflow.List(
					workflow.Scalar("Elachistocleis ovalis"),
					workflow.Scalar("Hyla faber"),
					workflow.Scalar("Scinax fuscomarginatus"),
					workflow.Scalar("Physalaemus cuvieri"),
					workflow.Scalar("Boana albopunctata"),
				)}, "", nil, col)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := repoLegacy.Store(col.Info(), col.Graph()); err != nil {
				t.Fatal(err)
			}

			gotInfo, err := repoStream.Run(res.RunID)
			if err != nil {
				t.Fatal(err)
			}
			wantInfo, err := repoLegacy.Run(res.RunID)
			if err != nil {
				t.Fatal(err)
			}
			if gotInfo != wantInfo {
				t.Fatalf("run info differs:\nstream %+v\nlegacy %+v", gotInfo, wantInfo)
			}
			if gotInfo.Status != RunCompleted {
				t.Fatalf("status = %q", gotInfo.Status)
			}
			wantG, err := repoLegacy.Graph(res.RunID)
			if err != nil {
				t.Fatal(err)
			}
			gotG, err := repoStream.Graph(res.RunID)
			if err != nil {
				t.Fatal(err)
			}
			assertSameGraph(t, wantG, gotG)
			// Row for row, byte for byte: both paths build through one builder.
			for _, schema := range []*storage.Schema{nodesSchema, edgesSchema} {
				want, got := runRows(repoLegacy, schema, res.RunID), runRows(repoStream, schema, res.RunID)
				if len(got) != len(want) {
					t.Fatalf("%s: %d rows streamed, %d stored", schema.Table, len(got), len(want))
				}
				for i := range want {
					if g, w := storage.EncodeRow(nil, got[i]), storage.EncodeRow(nil, want[i]); !bytes.Equal(g, w) {
						t.Fatalf("%s row %d differs:\nstream %x\nlegacy %x", schema.Table, i, g, w)
					}
				}
			}
			// Quality reads agree too.
			wq, err := repoLegacy.QualityOfProcess(res.RunID, "Catalog_of_life")
			if err != nil {
				t.Fatal(err)
			}
			gq, err := repoStream.QualityOfProcess(res.RunID, "Catalog_of_life")
			if err != nil {
				t.Fatal(err)
			}
			if len(wq) != len(gq) || wq["reputation"] != gq["reputation"] {
				t.Fatalf("quality differs: %v vs %v", wq, gq)
			}
			m := w.Metrics()
			if m.Enqueued == 0 || m.Flushed != m.Enqueued || m.Batches == 0 {
				t.Fatalf("writer metrics = %+v", m)
			}
		})
	}
}

func TestStreamingFailedRunKeepsPartialProvenance(t *testing.T) {
	repo, _ := openRepo(t)
	reg := detectionRegistry()
	reg.Register("resolve", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		return nil, errors.New("authority down")
	})
	col := NewCollector("curator")
	w := repo.NewBatchWriter(BatchWriterOptions{})
	col.AddSink(w)
	_, err := workflow.NewEventEngine(reg).Resume(context.Background(), detectionDef(),
		map[string]workflow.Data{"metadata": workflow.Scalar("Hyla faber")}, "", nil, col)
	if err == nil {
		t.Fatal("run succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	runID := col.Info().RunID
	info, err := repo.Run(runID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != RunFailed || info.Error == "" {
		t.Fatalf("info = %+v", info)
	}
	// The partial provenance survived: the step that did complete is there.
	g, err := repo.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Node("p:" + runID + "/Normalize"); !ok {
		t.Fatal("partial provenance lost")
	}
}

func TestBatchWriterDuplicateRunFails(t *testing.T) {
	repo, _ := openRepo(t)
	col, _ := runCaptured(t, "Hyla faber")
	if err := repo.Store(col.Info(), col.Graph()); err != nil {
		t.Fatal(err)
	}
	// Streaming the same run again must surface the insert conflict.
	w := repo.NewBatchWriter(BatchWriterOptions{})
	if err := w.Emit(Delta{Kind: DeltaRunStarted, Info: col.Info()}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("duplicate run streamed without error")
	}
	if w.Err() == nil {
		t.Fatal("no sticky error")
	}
}

func TestBatchWriterEmitAfterClose(t *testing.T) {
	repo, _ := openRepo(t)
	w := repo.NewBatchWriter(BatchWriterOptions{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := w.Emit(Delta{Kind: DeltaHistory}); !errors.Is(err, ErrWriterClosed) {
		t.Fatalf("emit after close = %v", err)
	}
}

// waitWriter polls the writer's metrics until cond holds (or fails the test).
func waitWriter(t *testing.T, w *BatchWriter, cond func(WriterMetrics) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(w.Metrics()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("writer never reached condition; metrics = %+v", w.Metrics())
}

// TestBatchWriterCrashRecovery kills the process (simulated by truncating the
// WAL) inside every commit of a real run's stream, one delta per commit: the
// torn record rolls back exactly its own event, so the run reads back
// unfinished (Status == RunRunning) with the history before it and no graph
// row at all — until the final commit, which lands the terminal event, every
// node and edge and the run's status together or not at all.
func TestBatchWriterCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := NewRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	col, deltas := capturedRun(t, 3)
	runID := col.Info().RunID
	// One delta per commit and no interval flushes, so WAL record boundaries
	// are delta boundaries.
	w := repo.NewBatchWriter(BatchWriterOptions{MaxBatch: 1, FlushInterval: time.Hour})
	ends := make([]int64, len(deltas)) // WAL size once delta i is durable
	for i, d := range deltas {
		if err := w.Emit(d); err != nil {
			t.Fatal(err)
		}
		if i < len(deltas)-1 {
			waitWriter(t, w, func(m WriterMetrics) bool { return m.Batches == int64(i+1) })
			ends[i] = db.WALSize()
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	walPath := filepath.Join(dir, "wal.log")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ends[len(ends)-1] = st.Size()

	reopen := func() (*Repository, func()) {
		t.Helper()
		db2, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		repo2, err := NewRepository(db2)
		if err != nil {
			db2.Close()
			t.Fatal(err)
		}
		return repo2, func() { db2.Close() }
	}
	graphRows := func(r *Repository) int {
		return len(runRows(r, nodesSchema, runID)) + len(runRows(r, edgesSchema, runID))
	}

	// Clean shutdown: everything durable, the run finalized with its graph.
	r2, cls := reopen()
	if inf, err := r2.Run(runID); err != nil || inf.Status != RunCompleted {
		t.Fatalf("full reopen: %+v, %v", inf, err)
	}
	g, err := r2.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	if want := col.Graph(); g.NodeCount() != want.NodeCount() || g.EdgeCount() != want.EdgeCount() {
		t.Fatalf("full graph: %d/%d nodes, %d/%d edges", g.NodeCount(), want.NodeCount(), g.EdgeCount(), want.EdgeCount())
	}
	cls()

	// Killed inside commit i, newest first: the history holds events 0..i-1.
	for i := len(deltas) - 1; i >= 0; i-- {
		if err := os.Truncate(walPath, ends[i]-1); err != nil {
			t.Fatal(err)
		}
		r2, cls = reopen()
		inf, err := r2.Run(runID)
		if i == 0 {
			// The run row rode on the first event: the whole run vanishes.
			if !errors.Is(err, ErrRunNotFound) {
				t.Fatalf("torn first commit: %+v, %v", inf, err)
			}
			cls()
			break
		}
		if err != nil || inf.Status != RunRunning {
			t.Fatalf("torn commit %d: run %+v, %v; want it %s", i, inf, err, RunRunning)
		}
		history, err := r2.History(runID)
		if err != nil {
			t.Fatal(err)
		}
		if len(history) != i || history[i-1].Seq != i-1 {
			t.Fatalf("torn commit %d: %d history events survive, want %d", i, len(history), i)
		}
		if n := graphRows(r2); n != 0 {
			t.Fatalf("torn commit %d: %d graph rows stored for an unfinished run", i, n)
		}
		if g, err := r2.Graph(runID); err != nil || g.NodeCount() != 0 || g.EdgeCount() != 0 {
			t.Fatalf("torn commit %d: graph of the unfinished run = %v, %v", i, g, err)
		}
		cls()
	}
}

// runRows reads one run's rows of a run-keyed table, in key order.
func runRows(r *Repository, s *storage.Schema, runID string) []storage.Row {
	var rows []storage.Row
	r.scanRun(s, runID, runID+"/", func(row storage.Row) bool {
		rows = append(rows, row)
		return true
	})
	return rows
}

func seedRuns(t *testing.T, repo *Repository, ids ...string) {
	t.Helper()
	started := time.Date(2013, 11, 12, 19, 58, 9, 0, time.UTC)
	for _, id := range ids {
		g := opm.NewGraph()
		if err := g.AddNode(opm.Node{ID: "ag:x", Kind: opm.KindAgent, Label: "x"}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddNode(opm.Node{ID: "p:" + id + "/step", Kind: opm.KindProcess, Label: "step"}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(opm.Edge{Kind: opm.WasControlledBy, Effect: "p:" + id + "/step", Cause: "ag:x", Role: "executor", Account: id}); err != nil {
			t.Fatal(err)
		}
		info := RunInfo{RunID: id, WorkflowID: "wf", WorkflowName: "W",
			StartedAt: started, FinishedAt: started.Add(time.Second), Status: RunCompleted}
		if err := repo.Store(info, g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunsPage(t *testing.T) {
	repo, _ := openRepo(t)
	seedRuns(t, repo, "run-a", "run-b", "run-c", "run-d", "run-e")
	var got []string
	after := ""
	pages := 0
	for {
		runs, next, err := repo.RunsPage(after, 2)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, r := range runs {
			got = append(got, r.RunID)
		}
		if next == "" {
			break
		}
		after = next
	}
	want := []string{"run-a", "run-b", "run-c", "run-d", "run-e"}
	if len(got) != len(want) {
		t.Fatalf("paged runs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("paged runs = %v", got)
		}
	}
	if pages != 3 {
		t.Fatalf("pages = %d", pages)
	}
	// Page boundaries are exact: no duplicates when a new run lands between
	// page fetches.
	runs, next, err := repo.RunsPage("run-b", 10)
	if err != nil || next != "" {
		t.Fatalf("tail page: %v, %q", err, next)
	}
	if len(runs) != 3 || runs[0].RunID != "run-c" {
		t.Fatalf("tail page = %+v", runs)
	}
}

func TestNodesAndEdgesPages(t *testing.T) {
	repo, _ := openRepo(t)
	col, res := runCaptured(t, "Elachistocleis ovalis")
	if err := repo.Store(col.Info(), col.Graph()); err != nil {
		t.Fatal(err)
	}
	full := col.Graph()

	var nodes []*opm.Node
	after := ""
	for {
		page, next, err := repo.NodesPage(res.RunID, after, 2)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, page...)
		if next == "" {
			break
		}
		after = next
	}
	if len(nodes) != full.NodeCount() {
		t.Fatalf("paged %d nodes, graph has %d", len(nodes), full.NodeCount())
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if seen[n.ID] {
			t.Fatalf("node %q paged twice", n.ID)
		}
		seen[n.ID] = true
		if _, ok := full.Node(n.ID); !ok {
			t.Fatalf("phantom node %q", n.ID)
		}
	}

	var edges []opm.Edge
	cursor := -1
	for {
		page, next, err := repo.EdgesPage(res.RunID, cursor, 3)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, page...)
		if next < 0 {
			break
		}
		cursor = next
	}
	want := full.Edges()
	if len(edges) != len(want) {
		t.Fatalf("paged %d edges, graph has %d", len(edges), len(want))
	}
	for i := range want {
		if edges[i].Effect != want[i].Effect || edges[i].Cause != want[i].Cause || edges[i].Kind != want[i].Kind {
			t.Fatalf("edge %d out of order: %+v vs %+v", i, edges[i], want[i])
		}
	}

	if _, _, err := repo.NodesPage("run-nope", "", 10); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("nodes of missing run: %v", err)
	}
	if _, _, err := repo.EdgesPage("run-nope", -1, 10); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("edges of missing run: %v", err)
	}
}

// TestRunIDWithSlashRejected: a run's rows are the key range "runID/…", so a
// run ID containing "/" would put its rows inside another run's range — run
// "a/b"'s inside run "a"'s, where they cut the key-range reads of "a" short.
// Store and the writer's run-started refuse such an ID, and run "a" reads
// whole through every read.
func TestRunIDWithSlashRejected(t *testing.T) {
	repo, _ := openRepo(t)
	seedRuns(t, repo, "a")
	g, err := repo.Graph("a")
	if err != nil {
		t.Fatal(err)
	}
	info := RunInfo{RunID: "a/b", WorkflowID: "wf", Status: RunCompleted}
	if err := repo.Store(info, g); err == nil {
		t.Fatal("Store accepted run ID a/b")
	}
	w := repo.NewBatchWriter(BatchWriterOptions{})
	info.RunID, info.Status = "a/c", RunRunning
	if err := w.Emit(Delta{Kind: DeltaRunStarted, Info: info}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("the writer started run a/c")
	}
	for _, id := range []string{"a/b", "a/c"} {
		if _, err := repo.Run(id); !errors.Is(err, ErrRunNotFound) {
			t.Fatalf("run %s stored: %v", id, err)
		}
	}
	nodes, _, err := repo.NodesPage("a", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	edges, _, err := repo.EdgesPage("a", -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || len(edges) != 1 || g.NodeCount() != 2 || g.EdgeCount() != 1 {
		t.Fatalf("run a reads %d nodes and %d edges paged, %d and %d whole; want 2 and 1",
			len(nodes), len(edges), g.NodeCount(), g.EdgeCount())
	}
}

func TestWriterMetricsAndBackpressure(t *testing.T) {
	repo, _ := openRepo(t)
	col := NewCollector("curator")
	// A tiny queue forces Emit through the backpressure path.
	w := repo.NewBatchWriter(BatchWriterOptions{MaxBatch: 2, FlushInterval: time.Millisecond, Queue: 1})
	col.AddSink(w)
	items := make([]workflow.Data, 8)
	for i := range items {
		items[i] = workflow.Scalar(fmt.Sprintf("Generated name%d", i))
	}
	_, err := workflow.NewEventEngine(detectionRegistry()).Resume(
		context.Background(), detectionDef(),
		map[string]workflow.Data{"metadata": workflow.List(items...)}, "", nil, col)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.Enqueued == 0 || m.Flushed != m.Enqueued {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Batches == 0 || m.AvgBatch() <= 0 || m.MaxBatch == 0 {
		t.Fatalf("batch metrics = %+v", m)
	}
	if m.PeakQueue == 0 {
		t.Fatalf("peak queue = %d", m.PeakQueue)
	}
	if got := m.Counters(); got["provenance.writer.flushed"] != float64(m.Flushed) {
		t.Fatalf("counters = %v", got)
	}
	if len(w.ch) != 0 {
		t.Fatalf("queue depth after close = %d", len(w.ch))
	}
}
