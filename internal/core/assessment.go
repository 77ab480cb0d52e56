package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/curation"
	"repro/internal/provenance"
	"repro/internal/quality"
	"repro/internal/shard"
	"repro/internal/taxonomy"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// DetectionOutcome bundles everything one assessment run produces: the
// Fig. 2 detection numbers, the provenance run ID, the persisted updates and
// the §IV.C quality assessment.
type DetectionOutcome struct {
	RunID            string
	WorkflowVersion  int
	DistinctNames    int
	RecordsProcessed int
	Outdated         int
	Unknown          int
	Unavailable      int
	// Degraded counts names answered from a stale cache during an authority
	// outage (taxonomy.ResilientResolver fallback) — resolved, but not fresh.
	Degraded       int
	Renames        map[string]string
	UpdatesCreated int
	Elapsed        time.Duration
	Assessment     *quality.Assessment
	// EngineMetrics snapshots the workflow engine's concurrency counters
	// for this run (invocations, elements dispatched, peak in-flight).
	EngineMetrics workflow.MetricsSnapshot
	// ProvenanceWriter snapshots the streaming provenance writer for this
	// run (queue depth, batch sizes, flush latency). Feed
	// ProvenanceWriter.Counters() to obs.FromRuntimeMetrics to persist it
	// as an ordinary observation.
	ProvenanceWriter provenance.WriterMetrics
	// Replayed lists processors whose outputs were replayed from persisted
	// history instead of re-executed (non-empty only for resumed runs).
	Replayed []string
}

// OutdatedFraction is Outdated/DistinctNames (Fig. 2: 7%).
func (o *DetectionOutcome) OutdatedFraction() float64 {
	if o.DistinctNames == 0 {
		return 0
	}
	return float64(o.Outdated) / float64(o.DistinctNames)
}

// RunOptions tunes one detection-and-assessment run.
type RunOptions struct {
	// Reputation and Availability are the expert-asserted annotations for
	// the Catalogue of Life (Listing 1: 1 and 0.9).
	Reputation   string
	Availability string
	// Author identifies the annotating expert.
	Author string
	// SkipLedger skips persisting per-record updates (benchmarks).
	SkipLedger bool
	// Parallel is the event engine's worker-pool size for the run: that many
	// worker goroutines pull activity tasks off the run's dispatch queue, so
	// at most Parallel service calls are in flight at once. 0 or 1 keeps a
	// single worker (the historical sequential behaviour, and what every
	// production entry point runs with). A resolver that can batch is not
	// helped by it: one worker already resolves an iteration's ready names in
	// one round trip (DESIGN.md "Batched element dispatch"). Against a
	// single-name resolver hundreds of milliseconds away it is the
	// difference between n×latency and n×latency/Parallel per pass.
	Parallel int
	// CrashAfterDeltas > 0 kills the run after that many provenance deltas —
	// history events, the run row riding on the first — have reached the
	// writer, leaving the unfinished marker and history prefix a real process
	// death would: the run's context is cancelled and RunDetection returns a
	// *CrashError carrying the run ID. Chaos-testing hook; zero in production.
	CrashAfterDeltas int
	// Untraced disables span collection for this run (the tracing-overhead
	// baseline). Latency histograms still record; only the span tree is
	// skipped. A tracer already present on the context is honored regardless.
	Untraced bool
	// Tenant scopes the run to one tenant: the workflow input is the distinct
	// names of that tenant's records only, per-record updates scan only those
	// records, and the minted run ID carries the tenant qualifier
	// ("<tenant>:run-000042") so the run routes to — and lists under — its
	// tenant. Empty is the default tenant (whole collection, legacy IDs).
	Tenant string
	// WriterOptions overrides the streaming provenance writer's batching
	// (group-commit size, flush interval, queue depth) for this run. Nil uses
	// the defaults. The trace context is always taken from the run.
	WriterOptions *provenance.BatchWriterOptions
	// Orchestrator names the owner of the run in System.Leases while it
	// executes (a scheduler member's name); empty is an unnamed owner. Every
	// run is claimed there, named or not.
	Orchestrator string
}

// detectionAgent labels the agent that controls a detection run's processes
// in its provenance graph: the paper's End User.
const detectionAgent = "end-user"

func (o *RunOptions) defaults() {
	if o.Reputation == "" {
		o.Reputation = "1"
	}
	if o.Availability == "" {
		o.Availability = "0.9"
	}
	if o.Author == "" {
		o.Author = "expert"
	}
}

// RunDetection executes the paper's full loop (§IV.C "the metadata curation
// process follows these steps"):
//
//  1. the expert adds quality metadata to the workflow (Workflow Adapter);
//  2. the workflow receives the FNJV sound metadata as input;
//  3. it checks for outdated names against the Catalogue of Life;
//  4. the Provenance Manager stores provenance from the run;
//  5. the output is a summary of updated species names;
//
// and then assesses quality (§IV.C): accuracy of species-name metadata plus
// the authority's reputation and availability.
func (s *System) RunDetection(ctx context.Context, resolver taxonomy.Resolver, opts RunOptions) (*DetectionOutcome, error) {
	return s.execute(ctx, resolver, "", opts)
}

// execute is the one run path: every way a detection run gets carried out —
// fresh, resumed, admitted, swept — is this function with a different
// (runID, persisted state) combination.
//
//   - runID == "" is a fresh run: the ID is minted here and no run state is
//     read.
//   - Every run's ID is claimed in s.Leases first and its state read second —
//     claim-before-read: no other executor in this process can extend the
//     prefix about to be replayed, and a claim that loses (ErrRunOwned)
//     never touches the run. No executor can exist outside this process: the
//     store's directory lock is this process's. What the read finds decides
//     the rest: no run row yet (legal only for a durably admitted ID) starts
//     fresh under that ID, an unfinished marker resumes, anything else is
//     ErrNotResumable.
//   - A fresh run is the empty history prefix: the engine is always entered
//     through Resume(runID, history), and resuming IS replaying — completed
//     activities are never re-invoked, unfinished iteration elements are
//     re-enqueued, and the final graph is identical to an uninterrupted run's.
//   - The claim is released when execute returns, on every path — after the
//     writer closed, and on the crash path too, so the next drain can resume.
func (s *System) execute(ctx context.Context, resolver taxonomy.Resolver, runID string, opts RunOptions) (*DetectionOutcome, error) {
	opts.defaults()
	fresh := runID == ""
	if fresh {
		runID = workflow.MintRunID(shard.Qualify(opts.Tenant, ""))
	} else if opts.Tenant == "" {
		// The run ID carries its tenant; a resumed run must recompute the
		// same tenant-scoped input the original run saw.
		opts.Tenant, _ = shard.Split(runID)
	}
	start := time.Now()

	if err := s.Leases.Claim(runID, opts.Orchestrator); err != nil {
		return nil, err
	}
	defer s.Leases.Release(runID)

	if !fresh {
		info, err := s.Provenance.Run(runID)
		switch {
		case errors.Is(err, provenance.ErrRunNotFound) && s.admitted(runID):
			fresh = true // admitted, never started
		case err != nil:
			return nil, fmt.Errorf("%w: %v", ErrNotResumable, err)
		case info.Status != provenance.RunRunning:
			return nil, fmt.Errorf("%w: run %s is %s", ErrNotResumable, runID, info.Status)
		case info.WorkflowID != DetectionWorkflowID:
			return nil, fmt.Errorf("%w: run %s executed workflow %q", ErrNotResumable, runID, info.WorkflowID)
		}
	}

	// Trace context: reuse a tracer minted upstream (API boundary), else mint
	// one here — this is the trace root for CLI and experiment runs. A resume
	// session records the run's span tree under the original run ID: the
	// crashed process took its in-memory spans with it, so this session's
	// trace IS the run's persisted trace (appended after any spans an earlier
	// session already stored).
	tracer := telemetry.TracerFrom(ctx)
	if tracer == nil && !opts.Untraced {
		tracer = telemetry.NewTracer(0)
		ctx = telemetry.WithTracer(ctx, tracer)
	}
	mark := 0
	if tracer != nil {
		mark = tracer.Len()
	}
	rootName := "run-detection"
	if !fresh {
		rootName = "resume-detection"
	}
	ctx, rootSpan := telemetry.StartSpan(ctx, rootName, "core")
	rootSpan.SetAttr("run_id", runID)

	// Step 1: instrument the specification. A resumed run rebuilds the same
	// instrumented definition the original executed; the workflow was already
	// published, and resuming must not mint a version.
	def, err := AnnotatedDetectionWorkflow(opts.Reputation, opts.Availability, opts.Author, start)
	if err != nil {
		return nil, err
	}
	var version int
	if fresh {
		if version, err = s.Workflows.Publish(def); err != nil {
			return nil, err
		}
	} else if version, err = s.Workflows.LatestVersion(DetectionWorkflowID); err != nil {
		version = 0 // prefix predates publication; resume anyway
	}

	// Step 2: gather the metadata (this tenant's distinct names). On resume
	// the input is recomputed, not recovered: DistinctNames is a deterministic
	// sorted scan of the collection, and the collection is not mutated by a
	// detection run.
	names, err := s.TenantDistinctNames(opts.Tenant)
	if err != nil {
		return nil, err
	}
	items := make([]workflow.Data, len(names))
	for i, n := range names {
		items[i] = workflow.Scalar(n)
	}

	// Step 3: execute with provenance capture and adapter probing. The run
	// binds its resolver in a registry of its own: s.Registry is shared with
	// every concurrent run and is only read.
	reg := s.Registry.Clone()
	RegisterDetectionServicesInto(reg, resolver)
	reg, err = s.Probe.Instrument(def, reg)
	if err != nil {
		return nil, err
	}
	runCtx := ctx
	// Step 4 overlaps step 3: the Provenance Manager streams the run's
	// history into the repository while the workflow executes (write-behind,
	// group-committed batches) and writes the graph in the commit that ends
	// the run, so completed runs are persisted when the engine returns and
	// failed runs keep their partial provenance, finalized as failed. A
	// resumed run's collector folds the stored prefix (the engine hands it
	// over), so its graph is rebuilt from history, not read back.
	wopts := provenance.BatchWriterOptions{}
	if opts.WriterOptions != nil {
		wopts = *opts.WriterOptions
	}
	wopts.Trace = ctx
	var (
		writer  provenance.RunWriter
		history []workflow.HistoryEvent
	)
	if fresh {
		writer, err = s.Provenance.RunWriter(wopts)
	} else {
		if history, err = s.Provenance.History(runID); err != nil {
			return nil, err
		}
		writer, err = s.Provenance.ResumeRunWriter(runID, wopts)
	}
	if err != nil {
		return nil, err
	}
	collector := provenance.NewCollector(detectionAgent)
	// The crash knob cuts fresh runs only: a replayed run's cut already
	// happened and must not re-fire.
	var crash *provenance.CrashSink
	if fresh && opts.CrashAfterDeltas > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithCancel(runCtx)
		defer cancel()
		crash = provenance.NewCrashSink(writer, opts.CrashAfterDeltas, cancel)
		collector.AddSink(crash)
	} else {
		collector.AddSink(writer)
	}
	engine := s.detectionEngine(reg, opts)
	inputs := map[string]workflow.Data{"names": workflow.List(items...)}
	result, runErr := engine.Resume(runCtx, def, inputs, runID, history, collector)
	werr := writer.Close()
	if crash != nil && crash.Crashed() {
		// Even if the engine outran the cancellation and completed, the
		// run's end was dropped: the run row still reads running, exactly
		// like a process death. Report the kill so the caller can resume.
		// Spans are deliberately NOT persisted — a real process death loses
		// its in-memory trace; the resume session records the run's tree.
		return nil, &CrashError{RunID: runID, Deltas: crash.Forwarded()}
	}
	if runErr != nil {
		rootSpan.SetAttr("error", runErr.Error())
		rootSpan.Finish()
		if tracer != nil {
			_ = s.saveTrace(runID, tracer.Since(mark))
		}
		return nil, runErr
	}
	if werr != nil {
		return nil, fmt.Errorf("core: streaming provenance: %w", werr)
	}
	if !fresh {
		recoveryStats.resumed.Add(1)
	}

	outcome, err := s.finishDetection(result, version, start, opts, engine.Metrics(), writer.Metrics())
	rootSpan.Finish()
	if err == nil && tracer != nil {
		if terr := s.saveTrace(runID, tracer.Since(mark)); terr != nil {
			return nil, fmt.Errorf("core: persisting trace: %w", terr)
		}
	}
	return outcome, err
}

// admitted reports whether runID sits in the durable admission queue — the
// only way a caller-supplied run ID may start from nothing.
func (s *System) admitted(runID string) bool {
	_, ok := s.Admissions.Get(runID)
	return ok
}

// detectionEngine builds the event-sourced engine for one detection run:
// worker-pool size from opts.Parallel, dispatch counted into the system-wide
// gauges.
func (s *System) detectionEngine(reg *workflow.Registry, opts RunOptions) *workflow.EventEngine {
	engine := workflow.NewEventEngine(reg)
	engine.Workers = opts.Parallel
	engine.Gauges = &s.Dispatch
	return engine
}

// finishDetection turns a completed detection run into a DetectionOutcome:
// parses the summary datum, persists per-record updates, and assesses
// quality. Shared by fresh and resumed runs.
func (s *System) finishDetection(result *workflow.RunResult, version int, start time.Time, opts RunOptions, em workflow.MetricsSnapshot, wm provenance.WriterMetrics) (*DetectionOutcome, error) {
	// Step 5: parse the summary.
	var sum detectionSummary
	if err := json.Unmarshal([]byte(result.Outputs["summary"].String()), &sum); err != nil {
		return nil, fmt.Errorf("core: bad summary datum: %w", err)
	}

	outcome := &DetectionOutcome{
		RunID:            result.RunID,
		WorkflowVersion:  version,
		DistinctNames:    sum.DistinctNames,
		Outdated:         sum.Outdated,
		Unknown:          sum.Unknown,
		Unavailable:      sum.Unavailable,
		Degraded:         sum.Degraded,
		Renames:          sum.Renames,
		EngineMetrics:    em,
		ProvenanceWriter: wm,
		Replayed:         result.Replayed,
	}

	// Persist per-record updates referencing (not modifying) the originals,
	// scoped to the run's tenant: a tenant run reads only the tenant's shard,
	// the same fault-isolation contract as TenantDistinctNames.
	var updates []*curation.NameUpdate
	err := s.Records.ScanSpecies(opts.Tenant, func(id, species string) bool {
		outcome.RecordsProcessed++
		updated, bad := sum.Renames[species]
		if !bad {
			return true
		}
		status := "synonym"
		name := updated
		if updated == "Nomen inquirendum" {
			status = "provisionally accepted"
			name = ""
		}
		updates = append(updates, &curation.NameUpdate{
			RecordID:     id,
			OriginalName: species,
			UpdatedName:  name,
			Status:       status,
			Reference:    sum.References[species],
			DetectedAt:   start,
			Review:       curation.ReviewPending,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	if !opts.SkipLedger && len(updates) > 0 {
		if err := s.Ledger.AddUpdates(updates); err != nil {
			return nil, err
		}
	}
	outcome.UpdatesCreated = len(updates)

	// §IV.C quality assessment.
	assessment, err := s.assessDetection(result.RunID, sum)
	if err != nil {
		return nil, err
	}
	outcome.Assessment = assessment
	outcome.Elapsed = time.Since(start)
	return outcome, nil
}

// assessDetection runs the §IV.C quality computation for a finished run:
// species-name accuracy from the detection counts, reputation and
// availability from the provenance annotations.
func (s *System) assessDetection(runID string, sum detectionSummary) (*quality.Assessment, error) {
	annotations, err := s.Provenance.QualityOfProcess(runID, "Catalog_of_life")
	if err != nil {
		return nil, err
	}
	manager := quality.NewManager()
	if err := manager.Register(quality.RatioMetric(
		"species-name-accuracy", quality.DimAccuracy,
		"fraction of distinct names the authority still accepts",
		func(ctx *quality.Context) (int, int, error) {
			correct := sum.DistinctNames - sum.Outdated - sum.Unknown - sum.Unavailable
			checked := sum.DistinctNames - sum.Unavailable
			return correct, checked, nil
		})); err != nil {
		return nil, err
	}
	if err := manager.Register(quality.AnnotationMetric("authority-reputation", quality.DimReputation)); err != nil {
		return nil, err
	}
	if err := manager.Register(quality.AnnotationMetric("asserted-availability", quality.DimAvailability)); err != nil {
		return nil, err
	}
	if sum.Degraded > 0 {
		// Degraded-mode visibility: answers served from a stale cache while
		// the authority was down mark the assessment's availability dimension
		// down. Registered only when degradation actually happened, so
		// healthy runs assess exactly as before.
		if err := manager.Register(quality.RatioMetric(
			"fresh-resolutions", quality.DimAvailability,
			"fraction of checked names answered by the live authority rather than a stale cache",
			func(ctx *quality.Context) (int, int, error) {
				checked := sum.DistinctNames - sum.Unavailable
				return checked - sum.Degraded, checked, nil
			})); err != nil {
			return nil, err
		}
	}
	goal := quality.Goal{
		Name: "long-term-preservation",
		Weights: map[string]float64{
			quality.DimAccuracy:     2,
			quality.DimReputation:   1,
			quality.DimAvailability: 1,
		},
	}
	return manager.Assess(goal, &quality.Context{
		Subject:     "FNJV species-name metadata",
		Annotations: annotations,
	})
}
