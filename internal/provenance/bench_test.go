package provenance

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/opm"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// capturedRun executes one detection run over n names and returns the
// collector (graph + info) plus the recorded delta stream.
func capturedRun(b testing.TB, n int) (*Collector, []Delta) {
	b.Helper()
	col := NewCollector("curator")
	var deltas []Delta
	col.AddSink(sinkFunc(func(d Delta) error {
		deltas = append(deltas, d)
		return nil
	}))
	items := make([]workflow.Data, n)
	for i := range items {
		items[i] = workflow.Scalar(fmt.Sprintf("Generated name%d", i))
	}
	_, err := workflow.NewEventEngine(detectionRegistry()).Resume(
		context.Background(), detectionDef(),
		map[string]workflow.Data{"metadata": workflow.List(items...)}, "", nil, col)
	if err != nil {
		b.Fatal(err)
	}
	return col, deltas
}

type sinkFunc func(Delta) error

func (f sinkFunc) Emit(d Delta) error { return f(d) }

func benchRepo(b *testing.B) *Repository {
	b.Helper()
	db, err := storage.Open(b.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	repo, err := NewRepository(db)
	if err != nil {
		b.Fatal(err)
	}
	return repo
}

// renamed returns the run's info/deltas rebound to a fresh run ID so each
// benchmark iteration stores a distinct run.
func renamed(info RunInfo, i int) RunInfo {
	info.RunID = fmt.Sprintf("%s-%06d", info.RunID, i)
	return info
}

// BenchmarkStoreLegacy measures the monolithic after-the-run persistence
// path: one Apply containing the entire graph.
func BenchmarkStoreLegacy(b *testing.B) {
	col, _ := capturedRun(b, 32)
	repo := benchRepo(b)
	g := col.Graph()
	info := col.Info()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := repo.Store(renamed(info, i), g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreStreaming measures the write-behind path: the same run's
// delta stream — its history, then the graph with the run's end — replayed
// through a BatchWriter (queueing, batching and group commit included).
func BenchmarkStoreStreaming(b *testing.B) {
	col, deltas := capturedRun(b, 32)
	repo := benchRepo(b)
	info := col.Info()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := repo.NewBatchWriter(BatchWriterOptions{})
		ri := renamed(info, i)
		for _, d := range deltas {
			switch d.Kind {
			case DeltaRunStarted, DeltaRunFinished:
				d.Info = ri
				d.Info.Status = RunRunning
				if d.Kind == DeltaRunFinished {
					d.Info.Status = RunCompleted
				}
			}
			if err := w.Emit(d); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreStreamingOverlap measures what the write-behind path buys
// end to end: a run whose processors carry real latency, with persistence
// overlapped behind execution, versus executing first and storing after.
func BenchmarkStoreStreamingOverlap(b *testing.B) {
	delay := 200 * time.Microsecond
	reg := workflow.NewRegistry()
	reg.Register("normalize", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		time.Sleep(delay)
		return map[string]workflow.Data{"clean": c.Input("raw")}, nil
	})
	reg.Register("resolve", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		time.Sleep(delay)
		return map[string]workflow.Data{"status": workflow.Scalar(c.Input("name").String() + "=accepted")}, nil
	})
	items := make([]workflow.Data, 16)
	for i := range items {
		items[i] = workflow.Scalar(fmt.Sprintf("Generated name%d", i))
	}
	// run returns how long the caller stalled *after* the engine finished,
	// waiting for provenance to become durable — the latency the write-behind
	// path overlaps into execution.
	run := func(b *testing.B, repo *Repository, streaming bool) time.Duration {
		col := NewCollector("curator")
		var w *BatchWriter
		if streaming {
			// Flush eagerly: each processor's burst of deltas commits while
			// the next processor is still executing.
			w = repo.NewBatchWriter(BatchWriterOptions{MaxBatch: 32, FlushInterval: 2 * time.Millisecond})
			col.AddSink(w)
		}
		_, err := workflow.NewEventEngine(reg).Resume(context.Background(), detectionDef(),
			map[string]workflow.Data{"metadata": workflow.List(items...)}, "", nil, col)
		if err != nil {
			b.Fatal(err)
		}
		engineDone := time.Now()
		if streaming {
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		} else if err := repo.Store(col.Info(), col.Graph()); err != nil {
			b.Fatal(err)
		}
		return time.Since(engineDone)
	}
	bench := func(streaming bool) func(*testing.B) {
		return func(b *testing.B) {
			repo := benchRepo(b)
			var tail time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tail += run(b, repo, streaming)
			}
			b.ReportMetric(float64(tail.Nanoseconds())/float64(b.N), "post-run-ns/op")
		}
	}
	b.Run("store-after", bench(false))
	b.Run("write-behind", bench(true))
}

// seedLineage fills the repository with `runs` runs of background noise plus
// one run over a distinct input, and returns that rare input's artifact ID —
// the selective query shape the secondary index exists for (a table scan
// still walks every run's edges to find it).
func seedLineage(b *testing.B, repo *Repository, runs int) string {
	b.Helper()
	col, _ := capturedRun(b, 32)
	g := col.Graph()
	info := col.Info()
	for i := 0; i < runs; i++ {
		if err := repo.Store(renamed(info, i), g); err != nil {
			b.Fatal(err)
		}
	}
	rare := NewCollector("curator")
	_, err := workflow.NewEventEngine(detectionRegistry()).Resume(
		context.Background(), detectionDef(),
		map[string]workflow.Data{"metadata": workflow.Scalar("Rare input")}, "", nil, rare)
	if err != nil {
		b.Fatal(err)
	}
	if err := repo.Store(rare.Info(), rare.Graph()); err != nil {
		b.Fatal(err)
	}
	return artifactID(workflow.Scalar("Rare input"))
}

// scanRunsUsingArtifact replicates the pre-index implementation: a full edge
// table scan filtering on cause and kind — the baseline the secondary-index
// probe replaces.
func scanRunsUsingArtifact(repo *Repository, artifact string) []string {
	set := map[string]bool{}
	repo.db.Table(edgesTable).Scan(func(row storage.Row) bool {
		if row.Get(edgesSchema, "cause").Str() == artifact &&
			opm.EdgeKind(row.Get(edgesSchema, "kind").Int()) == opm.Used {
			set[row.Get(edgesSchema, "run_id").Str()] = true
		}
		return true
	})
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func BenchmarkRunsUsingArtifactScan(b *testing.B) {
	repo := benchRepo(b)
	artifact := seedLineage(b, repo, 64)
	want, err := repo.RunsUsingArtifact(artifact)
	if err != nil || len(want) == 0 {
		b.Fatalf("seed: %v, %v", want, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := scanRunsUsingArtifact(repo, artifact); len(got) != len(want) {
			b.Fatalf("scan found %d runs, want %d", len(got), len(want))
		}
	}
}

func BenchmarkRunsUsingArtifactIndexed(b *testing.B) {
	repo := benchRepo(b)
	artifact := seedLineage(b, repo, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := repo.RunsUsingArtifact(artifact)
		if err != nil || len(got) == 0 {
			b.Fatalf("lookup: %v, %v", got, err)
		}
	}
}

// BenchmarkQualityOfProcessGraphReload replicates the pre-refactor
// implementation: reconstruct the run's whole graph to read one node's
// annotations.
func BenchmarkQualityOfProcessGraphReload(b *testing.B) {
	repo := benchRepo(b)
	col, _ := capturedRun(b, 32)
	info := renamed(col.Info(), 0)
	if err := repo.Store(info, col.Graph()); err != nil {
		b.Fatal(err)
	}
	pid := "p:" + col.Info().RunID + "/Catalog_of_life"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := repo.Graph(info.RunID)
		if err != nil {
			b.Fatal(err)
		}
		n, ok := g.Node(pid)
		if !ok || n.Annotations["quality.reputation"] != "1" {
			b.Fatalf("node = %+v", n)
		}
	}
}

func BenchmarkQualityOfProcessDirect(b *testing.B) {
	repo := benchRepo(b)
	col, _ := capturedRun(b, 32)
	// QualityOfProcess derives the node key from the run ID, so store under
	// the original ID.
	if err := repo.Store(col.Info(), col.Graph()); err != nil {
		b.Fatal(err)
	}
	runID := col.Info().RunID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := repo.QualityOfProcess(runID, "Catalog_of_life")
		if err != nil || q["reputation"] != "1" {
			b.Fatalf("quality = %v, %v", q, err)
		}
	}
}
