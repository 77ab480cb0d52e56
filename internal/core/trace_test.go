package core

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/taxonomy"
	"repro/internal/telemetry"
)

// kindSet tallies span kinds for subsystem-coverage assertions.
func kindSet(spans []telemetry.Span) map[string]int {
	m := map[string]int{}
	for _, sp := range spans {
		m[sp.Kind]++
	}
	return m
}

// TestTracePropagation is the tentpole's end-to-end guarantee: a parallel
// detection run yields ONE connected span tree — core root, engine workflow/
// processor/batch spans, taxonomy resolution spans, provenance-writer flush
// spans — with no orphans, persisted under the run ID. Run under -race via
// make race.
func TestTracePropagation(t *testing.T) {
	sys, taxa, _ := testSystem(t, 120, 30)
	// The production resolver stack, so resolution spans appear in the tree.
	resolver := taxonomy.NewResilientResolver(taxa.Checklist, taxonomy.ResilienceOptions{})
	outcome, err := sys.RunDetection(context.Background(), resolver, RunOptions{
		SkipLedger: true, Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	spans, err := sys.Traces.Spans(outcome.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.TreeComplete(spans); err != nil {
		t.Fatalf("span tree not connected: %v", err)
	}
	roots, _ := telemetry.BuildTree(spans)
	if roots[0].Span.Name != "run-detection" || roots[0].Span.Kind != "core" {
		t.Fatalf("root span is %q/%q, want run-detection/core", roots[0].Span.Name, roots[0].Span.Kind)
	}
	for i, sp := range spans {
		if sp.TraceID != outcome.RunID {
			t.Fatalf("span %d carries trace %q, want %q", i, sp.TraceID, outcome.RunID)
		}
	}

	kinds := kindSet(spans)
	for _, k := range []string{"core", "engine", "taxonomy", "provenance-writer"} {
		if kinds[k] == 0 {
			t.Errorf("no %q spans in the run's tree (kinds: %v)", k, kinds)
		}
	}
	// Every dispatched name is covered by exactly one engine span carrying
	// the queue-wait/execute split: its own element span, or the span of the
	// batch that carried it (the resilient stack offers a batch form, so the
	// engine dispatches ready names together).
	covered := 0
	for _, sp := range spans {
		if sp.Kind != "engine" || sp.Attrs["queue_wait_us"] == "" || sp.Attrs["exec_us"] == "" || sp.Attrs["worker"] == "" {
			continue
		}
		switch {
		case strings.HasPrefix(sp.Name, "batch:"):
			n, err := strconv.Atoi(sp.Attrs["elements"])
			if err != nil || n < 2 {
				t.Errorf("batch span %q carries elements=%q", sp.Name, sp.Attrs["elements"])
			}
			covered += n
		case strings.HasPrefix(sp.Name, "element:"):
			covered++
		}
	}
	if covered != outcome.DistinctNames {
		t.Errorf("engine spans cover %d of %d dispatched names", covered, outcome.DistinctNames)
	}
	if kinds["engine"] > outcome.DistinctNames {
		t.Errorf("engine spans = %d for %d names: batched dispatch must not add spans", kinds["engine"], outcome.DistinctNames)
	}
}

// TestTraceResumedRun: a crashed-then-resumed run is still queryable as a
// complete span tree under its original run ID (the resume session's trace).
func TestTraceResumedRun(t *testing.T) {
	sys, taxa, _ := testSystem(t, 60, 12)
	ctx := context.Background()
	opts := RunOptions{SkipLedger: true, Parallel: 2}

	kill := opts
	kill.CrashAfterDeltas = 5
	_, err := sys.RunDetection(ctx, taxa.Checklist, kill)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("expected CrashError, got %v", err)
	}
	// The crashed session's spans died with the "process": nothing persisted.
	if _, err := sys.Traces.Spans(crash.RunID); !errors.Is(err, telemetry.ErrTraceNotFound) {
		t.Fatalf("crashed run should have no persisted trace, got %v", err)
	}

	outcome, err := sys.ResumeDetection(ctx, taxa.Checklist, crash.RunID, opts)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.RunID != crash.RunID {
		t.Fatalf("resumed under new ID %s", outcome.RunID)
	}
	spans, err := sys.Traces.Spans(crash.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.TreeComplete(spans); err != nil {
		t.Fatalf("resumed run's span tree not connected: %v", err)
	}
	roots, _ := telemetry.BuildTree(spans)
	if roots[0].Span.Name != "resume-detection" {
		t.Fatalf("root span is %q, want resume-detection", roots[0].Span.Name)
	}
}

// TestTraceUntraced: the benchmark baseline records no spans but still runs.
func TestTraceUntraced(t *testing.T) {
	sys, taxa, _ := testSystem(t, 40, 10)
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{
		SkipLedger: true, Parallel: 2, Untraced: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Traces.Spans(outcome.RunID); !errors.Is(err, telemetry.ErrTraceNotFound) {
		t.Fatalf("untraced run persisted spans: %v", err)
	}
	// The engine counts regardless of tracing.
	if outcome.EngineMetrics.Invocations == 0 {
		t.Fatal("engine counted no invocation on an untraced run")
	}
}

// TestTraceReusesUpstreamTracer: a tracer minted at the API boundary is
// reused, and the run's spans parent into the caller's span.
func TestTraceReusesUpstreamTracer(t *testing.T) {
	sys, taxa, _ := testSystem(t, 40, 10)
	tr := telemetry.NewTracer(0)
	ctx := telemetry.WithTracer(context.Background(), tr)
	ctx, reqSpan := tr.StartSpan(ctx, "http-request", "api")

	outcome, err := sys.RunDetection(ctx, taxa.Checklist, RunOptions{SkipLedger: true, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqSpan.Finish()

	// In the shared tracer, the run's root parents into the API span.
	var inMem *telemetry.Span
	for _, sp := range tr.Since(0) {
		if sp.Name == "run-detection" {
			sp := sp
			inMem = &sp
		}
	}
	if inMem == nil {
		t.Fatal("no run-detection span recorded on the shared tracer")
	}
	if inMem.ParentID != reqSpan.SpanID {
		t.Fatalf("run root parent = %q, want API span %q", inMem.ParentID, reqSpan.SpanID)
	}

	// Persisted under the run ID alone, the tree is still complete: the
	// external API parent is detached so the run root stands as THE root.
	spans, err := sys.Traces.Spans(outcome.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.TreeComplete(spans); err != nil {
		t.Fatalf("persisted tree: %v", err)
	}
	roots, _ := telemetry.BuildTree(spans)
	if roots[0].Span.Name != "run-detection" {
		t.Fatalf("persisted root is %q, want run-detection", roots[0].Span.Name)
	}
}
