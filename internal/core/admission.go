package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

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
// drains the queue, claims each run's lease, and executes it — so the run
// survives the death of whichever orchestrator picks it up, and clients can
// watch /api/v1/runs/<id> from the moment of admission.

// admittedOptions is the serializable subset of RunOptions an admission
// round-trips through the durable queue. Chaos knobs travel too: a chaos
// harness admits crashing runs exactly like real ones.
type admittedOptions struct {
	Reputation           string  `json:"reputation,omitempty"`
	Availability         string  `json:"availability,omitempty"`
	Author               string  `json:"author,omitempty"`
	MeasuredAvailability float64 `json:"measured_availability,omitempty"`
	SkipLedger           bool    `json:"skip_ledger,omitempty"`
	Parallel             int     `json:"parallel,omitempty"`
	CrashAfterDeltas     int     `json:"crash_after_deltas,omitempty"`
	WorkerKills          int     `json:"worker_kills,omitempty"`
	Untraced             bool    `json:"untraced,omitempty"`
	LeaseTTLMS           int64   `json:"lease_ttl_ms,omitempty"`
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
		WorkerKills:          opts.WorkerKills,
		Untraced:             opts.Untraced,
		LeaseTTLMS:           opts.LeaseTTL.Milliseconds(),
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
		WorkerKills:          a.WorkerKills,
		Untraced:             a.Untraced,
		LeaseTTL:             time.Duration(a.LeaseTTLMS) * time.Millisecond,
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
// marker — a previous owner died mid-run — is a resume by history replay, and
// a terminal row (a peer finished it but died before clearing the admission
// row) is ErrNotResumable: a stale admission, which the scheduler backend
// settles. ErrLeaseHeld means a peer owns the run right now.
func (s *System) RunAdmitted(ctx context.Context, resolver taxonomy.Resolver, adm workflow.Admission, orchestrator string) (*DetectionOutcome, error) {
	opts := decodeRunOptions(adm.Options)
	opts.Tenant = adm.Tenant
	opts.Orchestrator = orchestrator
	return s.execute(ctx, resolver, adm.RunID, opts)
}

// SchedulerBackend adapts this system to the cluster scheduler: admissions
// come from the durable queue, execution goes through RunAdmitted /
// execute, and rescue candidates are the unfinished runs whose lease
// lapsed. base supplies execution defaults (Parallel, LeaseTTL, quality
// annotations) for runs admitted without their own; OnOutcome, when set,
// observes every completed outcome (the web layer feeds its last-outcome
// cache from it).
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
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = b.base.LeaseTTL
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
// so a missing row means a peer finished the run — claiming its released lease
// would bump the fence of a finished run for nothing. A row that is still
// there is claimed before anything else is read, as ever.
func (b *schedulerBackend) ExecuteAdmission(ctx context.Context, adm workflow.Admission, orchestrator string) error {
	if !b.sys.admitted(adm.RunID) {
		return cluster.ErrAdmissionSettled
	}
	out, err := b.sys.RunAdmitted(ctx, b.resolver, b.withBase(adm), orchestrator)
	return b.settle(adm.RunID, out, err)
}

// RescueCandidates implements cluster.SchedulerBackend: unfinished runs that
// were orchestrated (a lease row exists) but whose ownership lapsed. Runs
// that never took a lease — legacy unorchestrated executions — stay the
// startup sweep's business: a live one may be executing in-process right now,
// and nothing fences it.
func (b *schedulerBackend) RescueCandidates() ([]string, error) {
	unfinished, err := b.sys.Provenance.UnfinishedRuns()
	if err != nil {
		return nil, err
	}
	now := time.Now()
	var out []string
	for _, info := range unfinished {
		l, ok := b.sys.Leases.Get(info.RunID)
		if !ok || l.Live(now) {
			continue
		}
		out = append(out, info.RunID)
	}
	return out, nil
}

// RescueRun implements cluster.SchedulerBackend: claim the lapsed run and
// finish it by history replay under its original ID. A run a peer finished
// between listing and claim is a no-op settle (cluster.ErrAdmissionSettled);
// one that is unreadable right now (owning shard down) keeps its admission —
// the run still owes a terminal state.
func (b *schedulerBackend) RescueRun(ctx context.Context, runID, orchestrator string) error {
	opts := b.base
	if adm, ok := b.sys.Admissions.Get(runID); ok {
		opts = decodeRunOptions(b.withBase(adm).Options)
	}
	opts.Orchestrator = orchestrator
	out, err := b.sys.ResumeDetection(ctx, b.resolver, runID, opts)
	return b.settle(runID, out, err)
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
		// Died resumably mid-run; the abandoned lease ages out and any live
		// peer rescues. The admission row stays — it is the durable record
		// that this run must still reach a terminal state.
		return fmt.Errorf("%w: %v", cluster.ErrRunInterrupted, err)
	case errors.Is(err, cluster.ErrLeaseHeld) || errors.Is(err, cluster.ErrLeaseLost):
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
