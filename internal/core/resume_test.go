package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/provenance"
	"repro/internal/taxonomy"
	"repro/internal/workflow"
)

// TestCrashResumeEveryCut is the tentpole guarantee at the system level: a
// detection run killed after ANY number of persisted provenance deltas can be
// resumed under its original run ID, and the resumed run's final provenance
// graph is identical (modulo run ID and timings) to an uninterrupted run's.
// Exercised at both sequential and parallel engine settings, with the names
// dispatched one per call — so cuts land between names — and leased to the
// checklist's batch form, whose lease is one history event. Each arm's cuts
// range over its own run's deltas. Run under -race.
func TestCrashResumeEveryCut(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		parallel := parallel
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			t.Parallel()
			opts := RunOptions{SkipLedger: true, Parallel: parallel}
			t.Run("per-element", func(t *testing.T) {
				sys, taxa, _ := testSystem(t, 60, 12)
				crashResumeEveryCut(t, sys, singleOnlyResolver{taxa.Checklist}, opts, 20)
			})
			t.Run("batched", func(t *testing.T) {
				sys, taxa, _ := testSystem(t, 60, 12)
				crashResumeEveryCut(t, sys, taxa.Checklist, opts, 5)
			})
		})
	}
}

// crashResumeEveryCut kills a detection over resolver after every cut of an
// uninterrupted run's deltas and holds each resume to that run's graph.
func crashResumeEveryCut(t *testing.T, sys *System, resolver taxonomy.Resolver, opts RunOptions, vacuous int) {
	t.Helper()
	ctx := context.Background()
	baseline, err := sys.RunDetection(ctx, resolver, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseG, err := sys.Provenance.Graph(baseline.RunID)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalGraph(baseG, baseline.RunID)
	total := int(baseline.ProvenanceWriter.Enqueued)
	if total < vacuous {
		t.Fatalf("baseline persisted only %d deltas; test is vacuous", total)
	}

	resumed, failures := 0, 0
	for cut := 1; cut < total; cut++ {
		kill := opts
		kill.CrashAfterDeltas = cut
		_, err := sys.RunDetection(ctx, resolver, kill)
		var crash *CrashError
		if !errors.As(err, &crash) {
			t.Fatalf("cut %d: expected CrashError, got %v", cut, err)
		}
		if info, err := sys.Provenance.Run(crash.RunID); err != nil || info.Status != provenance.RunRunning {
			t.Fatalf("cut %d: killed run not left running: %+v, %v", cut, info, err)
		}

		outcome, err := sys.ResumeDetection(ctx, resolver, crash.RunID, opts)
		if err != nil {
			failures++
			t.Errorf("cut %d: resume failed: %v", cut, err)
			continue
		}
		resumed++
		if outcome.RunID != crash.RunID {
			t.Fatalf("cut %d: resumed under new ID %s", cut, outcome.RunID)
		}
		if outcome.DistinctNames != baseline.DistinctNames || outcome.Outdated != baseline.Outdated {
			t.Fatalf("cut %d: summary diverged: %d/%d names, %d/%d outdated",
				cut, outcome.DistinctNames, baseline.DistinctNames, outcome.Outdated, baseline.Outdated)
		}
		g, err := sys.Provenance.Graph(crash.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalGraph(g, crash.RunID); got != want {
			t.Fatalf("cut %d: resumed graph differs from baseline\n got %d bytes\nwant %d bytes", cut, len(got), len(want))
		}
		info, err := sys.Provenance.Run(crash.RunID)
		if err != nil || info.Status != provenance.RunCompleted {
			t.Fatalf("cut %d: resumed run status %+v, %v", cut, info, err)
		}
	}
	if failures > 0 {
		t.Fatalf("%d/%d cuts failed to resume", failures, resumed+failures)
	}
}

// TestReplayDeterminismAcrossWorkerCounts is the property test behind the
// event-sourced refactor: at every worker-pool size, with workers killed
// mid-run AND the process crashed at a random history cut, resuming by pure
// history replay converges on a provenance graph byte-identical (canonically)
// to a clean single-worker run — whether the engine dispatches the names one
// by one (the checklist stripped of its batch form) or leases them in batches
// (the resilient stack over the same checklist), with the two histories
// folding to the same activities, element for element, at every workers
// setting. Each arm's cut is drawn inside its own run's deltas. Run under
// -race.
func TestReplayDeterminismAcrossWorkerCounts(t *testing.T) {
	sys, taxa, _ := testSystem(t, 60, 12)
	ctx := context.Background()

	base, err := sys.RunDetection(ctx, taxa.Checklist, RunOptions{SkipLedger: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseG, err := sys.Provenance.Graph(base.RunID)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalGraph(baseG, base.RunID)
	dispatches := []struct {
		name     string
		resolver func() taxonomy.Resolver
	}{
		{"per-element", func() taxonomy.Resolver { return singleOnlyResolver{taxa.Checklist} }},
		{"batched", func() taxonomy.Resolver {
			return taxonomy.NewResilientResolver(taxa.Checklist, taxonomy.ResilienceOptions{})
		}},
	}
	// A run's delta count, per arm: the per-element arm's is one event per
	// name whatever the pool; the batched arm's is least when one worker
	// leases every name at once.
	totals := map[string]int{}
	for _, d := range dispatches {
		clean, err := sys.RunDetection(ctx, d.resolver(), RunOptions{SkipLedger: true, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		totals[d.name] = int(clean.ProvenanceWriter.Enqueued)
	}
	if totals["per-element"] < 20 || totals["batched"] < 5 {
		t.Fatalf("baselines persisted only %v deltas; test is vacuous", totals)
	}

	rng := rand.New(rand.NewSource(7)) // deterministic cuts, reproducible failures
	for _, workers := range []int{1, 4, 16} {
		kills := workers / 2
		for trial := 0; trial < 4; trial++ {
			opts := RunOptions{SkipLedger: true, Parallel: workers, WorkerKills: kills}
			folds := map[string]string{}
			for _, d := range dispatches {
				cut := 1 + rng.Intn(totals[d.name]-1)
				killRun := opts
				killRun.CrashAfterDeltas = cut
				resolver := d.resolver()
				_, err := sys.RunDetection(ctx, resolver, killRun)
				var crash *CrashError
				if !errors.As(err, &crash) {
					t.Fatalf("%s workers=%d cut=%d: expected CrashError, got %v", d.name, workers, cut, err)
				}
				outcome, err := sys.ResumeDetection(ctx, resolver, crash.RunID, opts)
				if err != nil {
					t.Fatalf("%s workers=%d cut=%d: resume: %v", d.name, workers, cut, err)
				}
				if outcome.RunID != crash.RunID {
					t.Fatalf("%s workers=%d cut=%d: resumed under new ID %s", d.name, workers, cut, outcome.RunID)
				}
				if outcome.DistinctNames != base.DistinctNames || outcome.Outdated != base.Outdated {
					t.Fatalf("%s workers=%d cut=%d: summary diverged: %d/%d names, %d/%d outdated", d.name, workers, cut,
						outcome.DistinctNames, base.DistinctNames, outcome.Outdated, base.Outdated)
				}
				g, err := sys.Provenance.Graph(crash.RunID)
				if err != nil {
					t.Fatal(err)
				}
				if got := canonicalGraph(g, crash.RunID); got != want {
					t.Fatalf("%s workers=%d cut=%d: resumed graph diverges from single-worker baseline", d.name, workers, cut)
				}
				history, err := sys.Provenance.History(crash.RunID)
				if err != nil {
					t.Fatal(err)
				}
				folds[d.name] = foldShape(history)
			}
			if folds["batched"] != folds["per-element"] {
				t.Errorf("workers=%d trial=%d: the batched history folds to\n%s\nthe per-element one to\n%s", workers, trial, folds["batched"], folds["per-element"])
			}
		}

		// The failed-activity cut: the run is cancelled with three names on
		// record, Catalog_of_life closes as failed, and the process dies
		// before run-finished reaches storage. The resumed run re-executes
		// the activity under its recorded schedule, and its graph is the
		// baseline's plus the failed attempt's error annotation. The names go
		// one per call, so the cancel lands between them.
		opts := RunOptions{SkipLedger: true, Parallel: workers}
		perElement := singleOnlyResolver{taxa.Checklist}
		failCtx, cancel := context.WithCancel(ctx)
		repo := sys.Provenance
		sys.Provenance = failedCut{Repo: repo, elements: 3, cancel: cancel}
		_, err := sys.RunDetection(failCtx, perElement, opts)
		sys.Provenance = repo
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled run returned %v", workers, err)
		}
		unfinished, err := repo.UnfinishedRuns()
		if err != nil || len(unfinished) != 1 {
			t.Fatalf("workers=%d: unfinished runs after the failed-activity cut = %v, %v", workers, unfinished, err)
		}
		runID := unfinished[0].RunID
		history, err := repo.History(runID)
		if err != nil {
			t.Fatal(err)
		}
		if last := history[len(history)-1]; last.Type != workflow.HistoryActivityFailed {
			t.Fatalf("workers=%d: persisted prefix ends at %s, want activity-failed", workers, last.Type)
		}
		outcome, err := sys.ResumeDetection(ctx, perElement, runID, opts)
		if err != nil {
			t.Fatalf("workers=%d: resume past the failed activity: %v", workers, err)
		}
		if outcome.DistinctNames != base.DistinctNames || outcome.Outdated != base.Outdated {
			t.Fatalf("workers=%d: summary diverged past the failed activity", workers)
		}
		g, err := repo.Graph(runID)
		if err != nil {
			t.Fatal(err)
		}
		proc, ok := g.Node("p:" + runID + "/Catalog_of_life")
		if !ok || proc.Annotations["error"] == "" {
			t.Fatalf("workers=%d: the failed attempt left no error annotation", workers)
		}
		delete(proc.Annotations, "error")
		if got := canonicalGraph(g, runID); got != want {
			t.Fatalf("workers=%d: graph resumed past the failed activity diverges from the baseline", workers)
		}
	}
	if c := sys.Workers.Counters(); c["workers.killed"] < 1 {
		t.Fatalf("chaos hook never killed a worker: %v", c)
	}
}

// failedCut is a provenance repository whose run writers provoke and then cut
// at a failed activity: the run's context is cancelled once `elements`
// iteration elements are on record, whether one per event or a lease per
// event, and the stream goes silent behind the first activity-failed event —
// what storage holds when the process dies before run-finished is flushed.
type failedCut struct {
	provenance.Repo
	elements int
	cancel   context.CancelFunc
}

func (f failedCut) RunWriter(opts provenance.BatchWriterOptions) (provenance.RunWriter, error) {
	w, err := f.Repo.RunWriter(opts)
	return &failedCutWriter{RunWriter: w, elements: f.elements, cancel: f.cancel}, err
}

type failedCutWriter struct {
	provenance.RunWriter
	elements int
	cancel   context.CancelFunc
	cut      bool
}

// Emit runs under the Collector's lock, like every Sink.
func (w *failedCutWriter) Emit(d provenance.Delta) error {
	if w.cut {
		return nil
	}
	if d.Kind == provenance.DeltaHistory {
		switch d.History.Type {
		case workflow.HistoryIterationElement, workflow.HistoryIterationBatch:
			before := w.elements
			w.elements -= recordedElements([]workflow.HistoryEvent{*d.History}, d.History.Activity)
			if before > 0 && w.elements <= 0 {
				w.cancel()
			}
		case workflow.HistoryActivityFailed:
			w.cut = true
		}
	}
	return w.RunWriter.Emit(d)
}

func TestResumeDetectionGuards(t *testing.T) {
	sys, taxa, _ := testSystem(t, 40, 10)
	ctx := context.Background()
	opts := RunOptions{SkipLedger: true}

	if _, err := sys.ResumeDetection(ctx, taxa.Checklist, "run-does-not-exist", opts); !errors.Is(err, ErrNotResumable) {
		t.Fatalf("unknown run: %v", err)
	}
	outcome, err := sys.RunDetection(ctx, taxa.Checklist, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ResumeDetection(ctx, taxa.Checklist, outcome.RunID, opts); !errors.Is(err, ErrNotResumable) {
		t.Fatalf("completed run: %v", err)
	}
}

// TestSweepUnfinishedRuns verifies the startup reconciliation: interrupted
// detection runs are resumed to completion when a resolver is available and
// finalized as abandoned (with a reason and the graph of their stored
// history) when none is — so no run holds its unfinished marker forever.
func TestSweepUnfinishedRuns(t *testing.T) {
	sys, taxa, _ := testSystem(t, 60, 12)
	ctx := context.Background()
	opts := RunOptions{SkipLedger: true}

	kill := opts
	kill.CrashAfterDeltas = 7
	_, err := sys.RunDetection(ctx, taxa.Checklist, kill)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("expected CrashError, got %v", err)
	}

	report, err := sys.SweepUnfinishedRuns(ctx, taxa.Checklist, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Found != 1 || len(report.Resumed) != 1 || report.Resumed[0] != crash.RunID {
		t.Fatalf("sweep report = %+v", report)
	}
	info, err := sys.Provenance.Run(crash.RunID)
	if err != nil || info.Status != provenance.RunCompleted {
		t.Fatalf("swept run status %+v, %v", info, err)
	}

	// A second crash, swept without a resolver, must be abandoned.
	_, err = sys.RunDetection(ctx, taxa.Checklist, kill)
	if !errors.As(err, &crash) {
		t.Fatalf("expected CrashError, got %v", err)
	}
	report, err = sys.SweepUnfinishedRuns(ctx, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Abandoned) != 1 {
		t.Fatalf("sweep report = %+v", report)
	}
	info, err = sys.Provenance.Run(crash.RunID)
	if err != nil || info.Status != provenance.RunAbandoned {
		t.Fatalf("abandoned run status %+v, %v", info, err)
	}
	if info.Error == "" {
		t.Fatal("abandoned run lacks a reason")
	}
	// It ended like any run, with the graph its stored history folds to.
	history, err := sys.Provenance.History(crash.RunID)
	if err != nil {
		t.Fatal(err)
	}
	fold := provenance.NewCollector(detectionAgent)
	fold.OnHistoryPrefix(history)
	g, err := sys.Provenance.Graph(crash.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() == 0 || canonicalGraph(g, crash.RunID) != canonicalGraph(fold.Graph(), crash.RunID) {
		t.Fatalf("abandoned run's graph (%d nodes) is not the fold of its %d history events", g.NodeCount(), len(history))
	}

	// The sweep converged: nothing unfinished remains.
	left, err := sys.Provenance.UnfinishedRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d unfinished runs survived the sweep", len(left))
	}
	if c := RecoveryCounters(); c["recovery.resumed"] < 1 || c["recovery.abandoned"] < 1 {
		t.Fatalf("recovery counters = %v", c)
	}
}
