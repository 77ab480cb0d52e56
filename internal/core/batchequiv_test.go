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
// graph and the length of the run's history.
type batchEquivShape struct {
	summary string
	graph   string
	history int
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
	return batchEquivShape{summary: summary, graph: canonicalGraph(g, outcome.RunID), history: len(history)}, outcome
}

// TestRunDetectionBatchEquivalence: the same detection over the same
// authority must yield byte-identical canonical provenance, equal history
// lengths and identical fresh/degraded accounting whether the engine
// dispatches names one per service call, or leases the ready names together
// and resolves them in one batch — at engine parallelism 1, 4 and 16. The
// HTTP arm runs the full resilient client stack uninterrupted, with workers
// killed mid-run, and crashed at a random cut and resumed; the in-process arm
// runs the checklist itself, whose batch form every in-process run takes.
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
		total := int(cleanOutcome.ProvenanceWriter.Enqueued)
		if total < 100 {
			t.Fatalf("baseline persisted only %d deltas; test is vacuous", total)
		}
		for _, parallel := range []int{1, 4, 16} {
			// Two uninterrupted runs, one crash while the names are still
			// being resolved (an element event is one delta, after three of
			// preamble: the resume has some names in its prefix and the rest
			// to re-dispatch), and one crash anywhere in the run.
			midIteration := 40 + rng.Intn(60)
			for _, cut := range []int{0, 0, midIteration, 1 + rng.Intn(total-1)} {
				opts := RunOptions{Parallel: parallel, SkipLedger: true, WorkerKills: parallel / 2}
				assertBatchEquivalent(t, sys, refStack(), batchStack(), opts, cut, cut == midIteration, clean)
			}
		}
		if c := sys.Workers.Counters(); c["workers.killed"] < 1 {
			t.Fatalf("chaos hook never killed a worker: %v", c)
		}
	})

	t.Run("in-process", func(t *testing.T) {
		ref, batched := singleOnlyResolver{taxa.Checklist}, taxa.Checklist
		clean, _ := runShapeWith(t, sys, ref, 1)
		for _, parallel := range []int{1, 4, 16} {
			assertBatchEquivalent(t, sys, ref, batched, RunOptions{Parallel: parallel, SkipLedger: true}, 0, false, clean)
		}
		midIteration := 40 + rng.Intn(60)
		assertBatchEquivalent(t, sys, ref, batched, RunOptions{Parallel: 4, SkipLedger: true}, midIteration, true, clean)
	})
}

// assertBatchEquivalent runs one detection per-element over ref and one
// batched over batched under the same options and cut, and holds the batched
// run to the per-element one and to the clean uninterrupted graph. midRun
// marks a cut inside the name iteration: the resume must re-batch the names
// missing from its prefix, and only those.
func assertBatchEquivalent(t *testing.T, sys *System, ref, batched taxonomy.Resolver, opts RunOptions, cut int, midRun bool, clean batchEquivShape) {
	t.Helper()
	parallel := opts.Parallel
	want, wantOutcome := runShapeOpts(t, sys, ref, opts, cut)
	got, gotOutcome := runShapeOpts(t, sys, batched, opts, cut)
	if got.summary != want.summary {
		t.Errorf("parallel=%d cut=%d summary diverges:\n batch  %s\n single %s", parallel, cut, got.summary, want.summary)
	}
	if got.graph != want.graph || got.graph != clean.graph {
		t.Errorf("parallel=%d cut=%d: batched provenance graph diverges from the per-element graph", parallel, cut)
	}
	if got.history != want.history {
		t.Errorf("parallel=%d cut=%d: batched history has %d events, per-element %d", parallel, cut, got.history, want.history)
	}
	if wantOutcome.Degraded != 0 || gotOutcome.Degraded != 0 {
		t.Errorf("parallel=%d cut=%d: healthy authority produced degraded answers (single %d, batch %d)",
			parallel, cut, wantOutcome.Degraded, gotOutcome.Degraded)
	}
	switch m := gotOutcome.EngineMetrics; {
	case cut == 0 && m.BatchedElements == 0:
		t.Errorf("parallel=%d: the batch path never engaged: %+v", parallel, m)
	case midRun && (m.BatchedElements == 0 || m.BatchedElements >= int64(gotOutcome.DistinctNames)):
		t.Errorf("parallel=%d cut=%d: resume must re-batch the missing names and only those: %+v", parallel, cut, m)
	}
	if m := wantOutcome.EngineMetrics; m.Batches != 0 {
		t.Errorf("parallel=%d cut=%d: the per-element reference batched: %+v", parallel, cut, m)
	}
}

// TestInProcessDetectionIsOneBatch: at the default single worker, an
// in-process detection resolves its names in one batch-form call — one
// engine batch carrying every name, one batch:Catalog_of_life span and no
// element spans — while history keeps one iteration-element per name.
func TestInProcessDetectionIsOneBatch(t *testing.T) {
	sys, taxa, _ := testSystem(t, 600, 120)
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{SkipLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	if m := outcome.EngineMetrics.Counters(); m["engine.batches"] != 1 || m["engine.batched_elements"] != float64(outcome.DistinctNames) {
		t.Errorf("engine.batches = %v carrying %v elements, want 1 carrying all %d names",
			m["engine.batches"], m["engine.batched_elements"], outcome.DistinctNames)
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
	perName := 0
	for _, ev := range history {
		if ev.Type == workflow.HistoryIterationElement && ev.Activity == "Catalog_of_life" {
			perName++
		}
	}
	if perName != outcome.DistinctNames {
		t.Errorf("%d iteration-element events for %d names", perName, outcome.DistinctNames)
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
// graph and the same history length as each other.
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
		if got.history != want.history {
			t.Errorf("parallel=%d: outage history has %d events batched, %d per-element", parallel, got.history, want.history)
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
