package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/provenance"
	"repro/internal/shard"
	"repro/internal/taxonomy"
	"repro/internal/workflow"
)

// Admission handoff: POST /api/v1/detect (and any other admitting caller) no
// longer has to execute a detection run in-request. AdmitDetection mints the
// run ID, persists the intent in the durable admission queue, and returns
// immediately; the scheduler pool (cluster.Scheduler over SchedulerBackend)
// drains the queue, claims each run in System.Leases, and executes it — so the
// run survives a crash mid-run (its admission row stays until it reaches a
// terminal state), and clients can watch /api/v1/runs/<id> from the moment of
// admission.

// admittedOptions is the serializable subset of RunOptions an admission
// round-trips through the durable queue. Chaos knobs travel too: a chaos
// harness admits crashing runs exactly like real ones. Rows written before a
// field was dropped (worker_kills, lease_ttl_ms) still decode: JSON ignores
// the unknown key.
type admittedOptions struct {
	Reputation           string  `json:"reputation,omitempty"`
	Availability         string  `json:"availability,omitempty"`
	Author               string  `json:"author,omitempty"`
	MeasuredAvailability float64 `json:"measured_availability,omitempty"`
	SkipLedger           bool    `json:"skip_ledger,omitempty"`
	Parallel             int     `json:"parallel,omitempty"`
	CrashAfterDeltas     int     `json:"crash_after_deltas,omitempty"`
	Untraced             bool    `json:"untraced,omitempty"`
}

func encodeRunOptions(opts RunOptions) string {
	blob, _ := json.Marshal(admittedOptions{
		Reputation:           opts.Reputation,
		Availability:         opts.Availability,
		Author:               opts.Author,
		MeasuredAvailability: opts.MeasuredAvailability,
		SkipLedger:           opts.SkipLedger,
		Parallel:             opts.Parallel,
		CrashAfterDeltas:     opts.CrashAfterDeltas,
		Untraced:             opts.Untraced,
	})
	return string(blob)
}

func decodeRunOptions(blob string) RunOptions {
	var a admittedOptions
	_ = json.Unmarshal([]byte(blob), &a) // zero value = defaults
	return RunOptions{
		Reputation:           a.Reputation,
		Availability:         a.Availability,
		Author:               a.Author,
		MeasuredAvailability: a.MeasuredAvailability,
		SkipLedger:           a.SkipLedger,
		Parallel:             a.Parallel,
		CrashAfterDeltas:     a.CrashAfterDeltas,
		Untraced:             a.Untraced,
	}
}

// AdmitDetection records the intent to run detection for opts.Tenant and
// returns the admission carrying the pre-minted run ID. The run does not
// execute here: whichever scheduler claims the admission first runs it under
// that ID. opts.Orchestrator is ignored — ownership is the claiming
// scheduler's, not the admitter's.
func (s *System) AdmitDetection(opts RunOptions) (workflow.Admission, error) {
	adm := workflow.Admission{
		RunID:   workflow.MintRunID(shard.Qualify(opts.Tenant, "")),
		Tenant:  opts.Tenant,
		Options: encodeRunOptions(opts),
	}
	if err := s.Admissions.Add(adm); err != nil {
		return workflow.Admission{}, err
	}
	return adm, nil
}

// RunAdmitted claims and executes one admitted run under the orchestrator's
// name. What the run's persisted state says decides what executing means (see
// execute): no run row yet is a fresh run under the admitted ID, an unfinished
// marker — a previous execution died mid-run — is a resume by history replay,
// and a terminal row (a peer finished it but the admission row outlived it) is
// ErrNotResumable: a stale admission, which the scheduler backend settles.
// cluster.ErrRunOwned means the run is executing in this process right now.
func (s *System) RunAdmitted(ctx context.Context, resolver taxonomy.Resolver, adm workflow.Admission, orchestrator string) (*DetectionOutcome, error) {
	opts := decodeRunOptions(adm.Options)
	opts.Tenant = adm.Tenant
	opts.Orchestrator = orchestrator
	return s.execute(ctx, resolver, adm.RunID, opts)
}

// SchedulerBackend adapts this system to the cluster scheduler: admissions
// come from the durable queue and execution goes through RunAdmitted /
// execute. base supplies execution defaults (Parallel, quality annotations)
// for runs admitted without their own; OnOutcome, when set, observes every
// completed outcome (the web layer feeds its last-outcome cache from it).
func (s *System) SchedulerBackend(resolver taxonomy.Resolver, base RunOptions, onOutcome func(*DetectionOutcome)) cluster.SchedulerBackend {
	return &schedulerBackend{sys: s, resolver: resolver, base: base, onOutcome: onOutcome}
}

type schedulerBackend struct {
	sys       *System
	resolver  taxonomy.Resolver
	base      RunOptions
	onOutcome func(*DetectionOutcome)
}

// withBase fills unset execution knobs of an admitted run from the backend's
// defaults.
func (b *schedulerBackend) withBase(adm workflow.Admission) workflow.Admission {
	opts := decodeRunOptions(adm.Options)
	if opts.Parallel == 0 {
		opts.Parallel = b.base.Parallel
	}
	adm.Options = encodeRunOptions(opts)
	return adm
}

// AdmissionHint implements cluster.SchedulerBackend: the admission queue's
// own wake signal, so every member built over this system listens to the one
// hint and an idle member picks up what a busy peer cannot.
func (b *schedulerBackend) AdmissionHint() <-chan struct{} {
	return b.sys.Admissions.Hint()
}

// PendingAdmissions implements cluster.SchedulerBackend.
func (b *schedulerBackend) PendingAdmissions() ([]workflow.Admission, error) {
	return b.sys.Admissions.Pending()
}

// ExecuteAdmission implements cluster.SchedulerBackend. The admission row is
// re-read first: the scheduler walks a pending list that goes stale while its
// earlier entries execute, and a row is removed only after a terminal outcome,
// so a missing row means a peer finished the run. A row that is still there
// is fsync'd next — pick-up is the queue's power-loss point, so under
// SyncOnClose a run that was started survives power loss, as every admission
// survives the process's death — and then claimed before anything else is
// read, as ever.
func (b *schedulerBackend) ExecuteAdmission(ctx context.Context, adm workflow.Admission, orchestrator string) error {
	if !b.sys.admitted(adm.RunID) {
		return cluster.ErrAdmissionSettled
	}
	if err := b.sys.Admissions.Sync(); err != nil {
		return err
	}
	out, err := b.sys.RunAdmitted(ctx, b.resolver, b.withBase(adm), orchestrator)
	return b.settle(adm.RunID, out, err)
}

// settle translates an execution result into the scheduler's contract and
// clears the admission row for every terminal outcome. nil means this call
// executed the run to a terminal state; finding it already terminal is
// cluster.ErrAdmissionSettled, so "my claim succeeded" is never reported as
// "I executed".
func (b *schedulerBackend) settle(runID string, out *DetectionOutcome, err error) error {
	var crash *CrashError
	switch {
	case err == nil:
		_ = b.sys.Admissions.Remove(runID)
		if out != nil && b.onOutcome != nil {
			b.onOutcome(out)
		}
		return nil
	case errors.As(err, &crash):
		// Died resumably mid-run. The admission row stays — it is the durable
		// record that this run must still reach a terminal state — and the
		// next drain re-executes it, which resumes it.
		return fmt.Errorf("%w: %v", cluster.ErrRunInterrupted, err)
	case errors.Is(err, cluster.ErrRunOwned):
		return err
	default:
		// The run row is terminal and cannot be re-run under the same ID, so
		// the admission is settled: either this call executed the run and it
		// failed, or (ErrNotResumable) the claim was won on a run a peer had
		// already finished and nothing was executed here.
		if info, ierr := b.sys.Provenance.Run(runID); ierr == nil && info.Status != provenance.RunRunning {
			_ = b.sys.Admissions.Remove(runID)
			if errors.Is(err, ErrNotResumable) {
				return cluster.ErrAdmissionSettled
			}
			return nil
		}
		return err
	}
}
