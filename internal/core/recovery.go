package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/provenance"
	"repro/internal/taxonomy"
)

// CrashError reports a detection run killed mid-flight (by the
// CrashAfterDeltas chaos knob, standing in for a process death). The run's
// history prefix is durable; ResumeDetection picks the run back up by its
// ID.
type CrashError struct {
	// RunID of the interrupted run — the key for ResumeDetection.
	RunID string
	// Deltas is how many provenance deltas — history events — reached the
	// writer before the kill.
	Deltas int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("core: run %s killed after %d provenance deltas", e.RunID, e.Deltas)
}

// ErrNotResumable is wrapped by ResumeDetection when the run cannot be
// resumed: unknown, already finished, or not a detection run.
var ErrNotResumable = errors.New("core: run not resumable")

// recoveryStats counts recovery activity process-wide (all systems in the
// process share them; the numbers feed obs/web metrics).
var recoveryStats struct {
	resumed   atomic.Int64
	abandoned atomic.Int64
	swept     atomic.Int64
}

// RecoveryCounters reports recovery activity for obs.FromRuntimeMetrics:
// runs resumed to completion, runs abandoned, and startup sweeps performed.
func RecoveryCounters() map[string]float64 {
	return map[string]float64{
		"recovery.resumed":   float64(recoveryStats.resumed.Load()),
		"recovery.abandoned": float64(recoveryStats.abandoned.Load()),
		"recovery.sweeps":    float64(recoveryStats.swept.Load()),
	}
}

// ResumeDetection picks up an interrupted detection run: it reloads the
// persisted history stream, replays it through the event engine (completed
// activities are never re-invoked; unfinished iteration elements are
// re-enqueued) and the provenance Collector, and finalizes the run under its
// original ID. Resume IS replay — there is no separate recovery path (see
// execute). The final provenance graph is identical to what an uninterrupted
// run would have produced.
//
// The run must still be marked running (the unfinished marker) and must be a
// detection-workflow run; anything else fails with ErrNotResumable. The run
// is claimed in System.Leases before any of its state is read; a run
// executing in this process right now fails with cluster.ErrRunOwned.
func (s *System) ResumeDetection(ctx context.Context, resolver taxonomy.Resolver, runID string, opts RunOptions) (*DetectionOutcome, error) {
	if runID == "" {
		return nil, fmt.Errorf("%w: no run ID", ErrNotResumable)
	}
	return s.execute(ctx, resolver, runID, opts)
}

// SweepReport summarizes one SweepUnfinishedRuns pass.
type SweepReport struct {
	// Found is how many unfinished markers the sweep saw.
	Found int
	// Resumed lists run IDs carried to completion.
	Resumed []string
	// Abandoned maps run IDs finalized as abandoned to the reason.
	Abandoned map[string]string
	// Skipped lists runs left alone because another executor in this process
	// (a scheduler member) held them when the sweep claimed, or finished them
	// between the listing and the claim: they are in flight or done, not the
	// sweep's to resume or abandon.
	Skipped []string
}

// SweepUnfinishedRuns is the startup reconciliation pass: every run the
// previous process left marked running is either resumed to completion
// (detection runs, when a resolver is supplied) or finalized as abandoned
// with a reason — so failed runs never hold their unfinished marker forever.
// Every unfinished run found at Open is an orphan: the directory lock Open
// took proves its executor is dead, so the sweep resumes it at once. An
// abandoned run ends like any other, through its writer's terminal delta,
// and keeps the graph its stored history folds to. A run the sweep ends
// either way leaves the admission queue, if it was admitted, just as a
// drain's would. Call it before starting new runs; a live in-flight run
// would match the marker too.
func (s *System) SweepUnfinishedRuns(ctx context.Context, resolver taxonomy.Resolver, opts RunOptions) (*SweepReport, error) {
	unfinished, err := s.Provenance.UnfinishedRuns()
	if err != nil {
		return nil, err
	}
	recoveryStats.swept.Add(1)
	report := &SweepReport{Found: len(unfinished), Abandoned: map[string]string{}}
	abandon := func(info provenance.RunInfo, reason string) error {
		if err := s.abandonRun(info, reason); err != nil {
			if now, ierr := s.Provenance.Run(info.RunID); ierr == nil && now.Status != provenance.RunRunning {
				// A failed resume already finalized the run (e.g. as failed);
				// the unfinished marker is gone either way.
				report.Abandoned[info.RunID] = reason
				_ = s.Admissions.Remove(info.RunID)
				return nil
			}
			return err
		}
		recoveryStats.abandoned.Add(1)
		report.Abandoned[info.RunID] = reason
		_ = s.Admissions.Remove(info.RunID)
		return nil
	}
	for _, info := range unfinished {
		switch {
		case info.WorkflowID != DetectionWorkflowID:
			if err := abandon(info, fmt.Sprintf("no resume path for workflow %q", info.WorkflowID)); err != nil {
				return report, err
			}
		case resolver == nil:
			if err := abandon(info, "no resolver available at sweep"); err != nil {
				return report, err
			}
		default:
			if _, rerr := s.ResumeDetection(ctx, resolver, info.RunID, opts); rerr != nil {
				if errors.Is(rerr, cluster.ErrRunOwned) {
					// Lost the claim: a scheduler member is executing the run
					// right now. Its run, not ours — abandoning it here would
					// finalize a run that is actively completing.
					report.Skipped = append(report.Skipped, info.RunID)
					continue
				}
				if now, ierr := s.Provenance.Run(info.RunID); errors.Is(rerr, ErrNotResumable) && ierr == nil && now.Status != provenance.RunRunning {
					// Won a claim the winner had already released: the run
					// was finished after the listing, and nothing ran here.
					// Abandoning it would rewrite its end.
					report.Skipped = append(report.Skipped, info.RunID)
					continue
				}
				if err := abandon(info, fmt.Sprintf("resume failed: %v", rerr)); err != nil {
					return report, err
				}
				continue
			}
			report.Resumed = append(report.Resumed, info.RunID)
			_ = s.Admissions.Remove(info.RunID)
		}
	}
	return report, nil
}

// abandonRun ends an unfinished run as RunAbandoned with the given reason:
// one terminal delta through the run's resume writer, carrying the fold of
// the history the run stored.
func (s *System) abandonRun(info provenance.RunInfo, reason string) error {
	history, err := s.Provenance.History(info.RunID)
	if err != nil {
		return err
	}
	w, err := s.Provenance.ResumeRunWriter(info.RunID, provenance.BatchWriterOptions{})
	if err != nil {
		return err
	}
	col := provenance.NewCollector(detectionAgent)
	col.OnHistoryPrefix(history)
	info.Status, info.Error, info.FinishedAt = provenance.RunAbandoned, reason, time.Now()
	// An Emit error is the writer's sticky one, which Close returns.
	_ = w.Emit(provenance.Delta{Kind: provenance.DeltaRunFinished, Info: info, Graph: col.Graph()})
	return w.Close()
}
