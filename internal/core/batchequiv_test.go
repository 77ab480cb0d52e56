package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/taxonomy"
	"repro/internal/workflow"
)

// singleOnlyResolver strips every batch capability from a resolver, leaving
// the bare one-name-per-call protocol: handed to core it keeps col.resolve
// without a batch form (per-element dispatch), wrapped around a client it
// keeps the stack to one name per round trip — the reference the batched
// path must be provenance-equivalent to.
type singleOnlyResolver struct {
	inner taxonomy.Resolver
}

func (s singleOnlyResolver) Resolve(ctx context.Context, name string) (taxonomy.Resolution, error) {
	return s.inner.Resolve(ctx, name)
}

// batchEquivShape is everything a detection run produces that batching must
// not change: the summary numbers, the renames, the canonical provenance
// graph and what the run's history says about each activity (foldShape) —
// not its length, since a lease is one event where a name per call is one
// per name.
type batchEquivShape struct {
	summary string
	graph   string
	fold    string
}

func runShapeWith(t *testing.T, sys *System, resolver taxonomy.Resolver, parallel int) (batchEquivShape, *DetectionOutcome) {
	t.Helper()
	return runShapeOpts(t, sys, resolver, RunOptions{Parallel: parallel, SkipLedger: true}, 0)
}

// runShapeOpts runs one detection under opts; with cut > 0 the run is first
// crashed after that many persisted deltas and then resumed under opts.
func runShapeOpts(t *testing.T, sys *System, resolver taxonomy.Resolver, opts RunOptions, cut int) (batchEquivShape, *DetectionOutcome) {
	t.Helper()
	parallel := opts.Parallel
	var outcome *DetectionOutcome
	var err error
	if cut > 0 {
		kill := opts
		kill.CrashAfterDeltas = cut
		_, err = sys.RunDetection(context.Background(), resolver, kill)
		var crash *CrashError
		if !errors.As(err, &crash) {
			t.Fatalf("parallel=%d cut=%d: expected CrashError, got %v", parallel, cut, err)
		}
		outcome, err = sys.ResumeDetection(context.Background(), resolver, crash.RunID, opts)
	} else {
		outcome, err = sys.RunDetection(context.Background(), resolver, opts)
	}
	if err != nil {
		t.Fatalf("parallel=%d cut=%d: %v", parallel, cut, err)
	}
	renames := make([]string, 0, len(outcome.Renames))
	for old, upd := range outcome.Renames {
		renames = append(renames, old+"->"+upd)
	}
	sort.Strings(renames)
	summary := fmt.Sprintf("distinct=%d outdated=%d unknown=%d unavailable=%d degraded=%d renames=%v accuracy=%.6f",
		outcome.DistinctNames, outcome.Outdated, outcome.Unknown, outcome.Unavailable, outcome.Degraded,
		renames, outcome.Assessment.Dimensions["accuracy"])
	g, err := sys.Provenance.Graph(outcome.RunID)
	if err != nil {
		t.Fatalf("parallel=%d: graph: %v", parallel, err)
	}
	history, err := sys.Provenance.History(outcome.RunID)
	if err != nil {
		t.Fatalf("parallel=%d: history: %v", parallel, err)
	}
	return batchEquivShape{summary: summary, graph: canonicalGraph(g, outcome.RunID), fold: foldShape(history)}, outcome
}

// TestRunDetectionBatchEquivalence: the same detection over the same
// authority must yield byte-identical canonical provenance, histories that
// fold to the same activities element for element, and identical
// fresh/degraded accounting whether the engine dispatches names one per
// service call, or leases the ready names together and resolves them in one
// batch — at engine parallelism 1, 4 and 16. The HTTP arm runs the full
// resilient client stack uninterrupted, and crashed at a random cut of each
// run's own deltas and resumed; the in-process arm runs the checklist itself,
// whose batch form every in-process run takes. In both, a per-element run cut
// mid-iteration and resumed under the batch form re-batches exactly the names
// missing from its prefix.
func TestRunDetectionBatchEquivalence(t *testing.T) {
	sys, taxa, _ := testSystem(t, 600, 120)
	rng := rand.New(rand.NewSource(11)) // deterministic cuts, reproducible failures

	t.Run("http", func(t *testing.T) {
		svc := taxonomy.NewService(taxa.Checklist, taxonomy.WithLatency(time.Millisecond))
		srv := httptest.NewServer(svc)
		defer srv.Close()
		// Reference: per-element dispatch. The resolver offers no batch
		// capability, so col.resolve has no batch form and every name is its
		// own service call through the full resilient stack.
		refStack := func() taxonomy.Resolver {
			return singleOnlyResolver{taxonomy.NewResilientResolver(singleOnlyResolver{taxonomy.NewClient(srv.URL)}, taxonomy.ResilienceOptions{})}
		}
		// Candidate: batched dispatch end to end (engine lease, cache miss
		// coalescing, one guard admission and one client request per batch).
		batchStack := func() taxonomy.Resolver {
			return taxonomy.NewResilientResolver(taxonomy.NewClient(srv.URL), taxonomy.ResilienceOptions{})
		}
		clean, cleanOutcome := runShapeWith(t, sys, refStack(), 1)
		refTotal := int(cleanOutcome.ProvenanceWriter.Enqueued)
		if refTotal < 100 {
			t.Fatalf("baseline persisted only %d deltas; test is vacuous", refTotal)
		}
		// The fewest deltas a batched run persists: one worker leases every
		// name at once.
		_, batchOutcome := runShapeWith(t, sys, batchStack(), 1)
		batchTotal := int(batchOutcome.ProvenanceWriter.Enqueued)
		for _, parallel := range []int{1, 4, 16} {
			// Two uninterrupted runs and one crash anywhere in each run.
			opts := RunOptions{Parallel: parallel, SkipLedger: true}
			for range 2 {
				assertBatchEquivalent(t, sys, refStack(), batchStack(), opts, 0, 0, clean)
			}
			assertBatchEquivalent(t, sys, refStack(), batchStack(), opts, 1+rng.Intn(refTotal-1), 1+rng.Intn(batchTotal-1), clean)
		}
		// An element event is one delta, after three of preamble: the
		// per-element prefix holds some names and the batch form the rest.
		assertCrossFormResume(t, sys, refStack(), batchStack(), 40+rng.Intn(60), clean)
	})

	t.Run("in-process", func(t *testing.T) {
		ref, batched := singleOnlyResolver{taxa.Checklist}, taxa.Checklist
		clean, _ := runShapeWith(t, sys, ref, 1)
		for _, parallel := range []int{1, 4, 16} {
			assertBatchEquivalent(t, sys, ref, batched, RunOptions{Parallel: parallel, SkipLedger: true}, 0, 0, clean)
		}
		assertCrossFormResume(t, sys, ref, batched, 40+rng.Intn(60), clean)
	})
}

// assertBatchEquivalent runs one detection per-element over ref and one
// batched over batched under the same options, each crashed after its own
// cut of deltas (0: uninterrupted) and resumed, and holds the batched run to
// the per-element one and to the clean uninterrupted graph.
func assertBatchEquivalent(t *testing.T, sys *System, ref, batched taxonomy.Resolver, opts RunOptions, refCut, batchCut int, clean batchEquivShape) {
	t.Helper()
	parallel := opts.Parallel
	want, wantOutcome := runShapeOpts(t, sys, ref, opts, refCut)
	got, gotOutcome := runShapeOpts(t, sys, batched, opts, batchCut)
	if got.summary != want.summary {
		t.Errorf("parallel=%d cuts=%d/%d summary diverges:\n batch  %s\n single %s", parallel, refCut, batchCut, got.summary, want.summary)
	}
	if got.graph != want.graph || got.graph != clean.graph {
		t.Errorf("parallel=%d cuts=%d/%d: batched provenance graph diverges from the per-element graph", parallel, refCut, batchCut)
	}
	if got.fold != want.fold {
		t.Errorf("parallel=%d cuts=%d/%d: batched history folds to\n%s\nper-element to\n%s", parallel, refCut, batchCut, got.fold, want.fold)
	}
	if wantOutcome.Degraded != 0 || gotOutcome.Degraded != 0 {
		t.Errorf("parallel=%d cuts=%d/%d: healthy authority produced degraded answers (single %d, batch %d)",
			parallel, refCut, batchCut, wantOutcome.Degraded, gotOutcome.Degraded)
	}
	if m := gotOutcome.EngineMetrics; batchCut == 0 && m.BatchedElements == 0 {
		t.Errorf("parallel=%d: the batch path never engaged: %+v", parallel, m)
	}
	if m := wantOutcome.EngineMetrics; m.Batches != 0 {
		t.Errorf("parallel=%d cuts=%d/%d: the per-element reference batched: %+v", parallel, refCut, batchCut, m)
	}
}

// assertCrossFormResume crashes a one-worker per-element detection over ref
// after cut deltas, inside its name iteration, and resumes it over batched:
// the resume must lease exactly the names missing from the prefix, as one
// batch, and arrive at the clean graph.
func assertCrossFormResume(t *testing.T, sys *System, ref, batched taxonomy.Resolver, cut int, clean batchEquivShape) {
	t.Helper()
	opts := RunOptions{Parallel: 1, SkipLedger: true}
	kill := opts
	kill.CrashAfterDeltas = cut
	_, err := sys.RunDetection(context.Background(), ref, kill)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("cut=%d: expected CrashError, got %v", cut, err)
	}
	prefix, err := sys.Provenance.History(crash.RunID)
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := sys.ResumeDetection(context.Background(), batched, crash.RunID, opts)
	if err != nil {
		t.Fatalf("cut=%d: resume under the batch form: %v", cut, err)
	}
	held := recordedElements(prefix, "Catalog_of_life")
	missing := outcome.DistinctNames - held
	if held == 0 || missing < 2 {
		t.Fatalf("cut=%d: prefix holds %d of %d names; the cut is not mid-iteration", cut, held, outcome.DistinctNames)
	}
	if m := outcome.EngineMetrics; m.Batches != 1 || m.BatchedElements != int64(missing) || m.ElementsDispatched != int64(missing) {
		t.Errorf("cut=%d: resume must re-batch the %d missing names and only those: %+v", cut, missing, m)
	}
	history, err := sys.Provenance.History(crash.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if n := recordedElements(history, "Catalog_of_life"); n != outcome.DistinctNames {
		t.Errorf("cut=%d: the resumed history records %d of %d names", cut, n, outcome.DistinctNames)
	}
	g, err := sys.Provenance.Graph(crash.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, crash.RunID) != clean.graph {
		t.Errorf("cut=%d: the graph resumed under the batch form diverges from the clean one", cut)
	}
}

// TestInProcessDetectionIsOneBatch: at the default single worker, an
// in-process detection resolves its names in one batch-form call — one
// engine batch carrying every name, one batch:Catalog_of_life span and no
// element spans — and its history records that call as one iteration-batch
// event carrying every name, with no iteration-element event.
func TestInProcessDetectionIsOneBatch(t *testing.T) {
	sys, taxa, _ := testSystem(t, 600, 120)
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{SkipLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	if m := outcome.EngineMetrics; m.Batches != 1 || m.BatchedElements != int64(outcome.DistinctNames) {
		t.Errorf("engine batches = %d carrying %d elements, want 1 carrying all %d names",
			m.Batches, m.BatchedElements, outcome.DistinctNames)
	}
	spans, err := sys.Traces.Spans(outcome.RunID)
	if err != nil {
		t.Fatal(err)
	}
	batches, elements := 0, 0
	for _, sp := range spans {
		switch {
		case sp.Name == "batch:Catalog_of_life":
			batches++
			if sp.Attrs["elements"] != strconv.Itoa(outcome.DistinctNames) {
				t.Errorf("batch span carries elements=%q, want %d", sp.Attrs["elements"], outcome.DistinctNames)
			}
		case strings.HasPrefix(sp.Name, "element:"):
			elements++
		}
	}
	if batches != 1 || elements != 0 {
		t.Errorf("%d batch:Catalog_of_life spans and %d element spans, want 1 and 0", batches, elements)
	}
	history, err := sys.Provenance.History(outcome.RunID)
	if err != nil {
		t.Fatal(err)
	}
	batchEvents, perName := 0, 0
	for _, ev := range history {
		switch ev.Type {
		case workflow.HistoryIterationBatch:
			batchEvents++
		case workflow.HistoryIterationElement:
			perName++
		}
	}
	if batchEvents != 1 || perName != 0 || recordedElements(history, "Catalog_of_life") != outcome.DistinctNames {
		t.Errorf("%d iteration-batch and %d iteration-element events recording %d of %d names, want one batch of every name",
			batchEvents, perName, recordedElements(history, "Catalog_of_life"), outcome.DistinctNames)
	}
}

// TestElementBatchFitsAuthorityLimit: the engine's per-batch constant must
// stay within what one authority request may carry, or a full lease would be
// answered with a non-retryable 400.
func TestElementBatchFitsAuthorityLimit(t *testing.T) {
	if workflow.MaxElementBatch > taxonomy.MaxBatch {
		t.Fatalf("workflow.MaxElementBatch = %d exceeds taxonomy.MaxBatch = %d", workflow.MaxElementBatch, taxonomy.MaxBatch)
	}
}

// TestRunDetectionBatchEquivalenceDuringOutage drops the authority dead
// between a cache-warming run and the run under test: batched and
// per-element dispatch must degrade identically — every name served stale,
// marked Degraded, none unavailable, with the same renames, the same canonical
// graph and histories that fold to the same activities as each other.
func TestRunDetectionBatchEquivalenceDuringOutage(t *testing.T) {
	sys, taxa, _ := testSystem(t, 400, 80)
	svc := taxonomy.NewService(taxa.Checklist)
	srv := httptest.NewServer(svc)
	defer srv.Close()

	shortTTL := taxonomy.ResilienceOptions{TTL: 10 * time.Millisecond}
	var single taxonomy.Resolver = singleOnlyResolver{taxonomy.NewResilientResolver(singleOnlyResolver{taxonomy.NewClient(srv.URL)}, shortTTL)}
	var batched taxonomy.Resolver = taxonomy.NewResilientResolver(taxonomy.NewClient(srv.URL), shortTTL)

	// Warm both stacks' last-known-good caches while the authority is up.
	if _, _, err := warmDetect(sys, single); err != nil {
		t.Fatal(err)
	}
	if _, _, err := warmDetect(sys, batched); err != nil {
		t.Fatal(err)
	}

	time.Sleep(20 * time.Millisecond) // expire the TTLs
	svc.SetAvailability(0)            // outage hits mid-campaign, before the next pass

	for _, parallel := range []int{1, 4, 16} {
		want, wantOutcome := runShapeWith(t, sys, single, parallel)
		got, gotOutcome := runShapeWith(t, sys, batched, parallel)

		if wantOutcome.Degraded != wantOutcome.DistinctNames {
			t.Fatalf("parallel=%d: single stack degraded %d of %d names", parallel, wantOutcome.Degraded, wantOutcome.DistinctNames)
		}
		if gotOutcome.Degraded != gotOutcome.DistinctNames {
			t.Fatalf("parallel=%d: batch stack degraded %d of %d names", parallel, gotOutcome.Degraded, gotOutcome.DistinctNames)
		}
		if gotOutcome.Unavailable != 0 || wantOutcome.Unavailable != 0 {
			t.Errorf("parallel=%d: unavailable names with a warm last-known-good cache (single %d, batch %d)",
				parallel, wantOutcome.Unavailable, gotOutcome.Unavailable)
		}
		if got.summary != want.summary {
			t.Errorf("parallel=%d: outage summaries diverge:\n batch  %s\n single %s", parallel, got.summary, want.summary)
		}
		if got.graph != want.graph {
			t.Errorf("parallel=%d: outage provenance graphs diverge between batched and per-element dispatch", parallel)
		}
		if got.fold != want.fold {
			t.Errorf("parallel=%d: outage history folds to\n%s\nbatched, to\n%s\nper-element", parallel, got.fold, want.fold)
		}
	}
}

func warmDetect(sys *System, resolver taxonomy.Resolver) (*DetectionOutcome, string, error) {
	outcome, err := sys.RunDetection(context.Background(), resolver, RunOptions{Parallel: 4, SkipLedger: true})
	if err != nil {
		return nil, "", err
	}
	return outcome, outcome.RunID, nil
}
