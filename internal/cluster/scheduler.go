package cluster

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// ErrRunInterrupted is how a SchedulerBackend reports an execution that died
// mid-run leaving a resumable prefix (the in-process stand-in for a process
// death, e.g. core's CrashError). The admission stays queued, and the next
// drain re-executes it, which resumes the run by replaying its history.
var ErrRunInterrupted = errors.New("cluster: run interrupted")

// ErrAdmissionSettled is how a SchedulerBackend reports a claim attempt that
// found nothing left to do: the admission row was already gone, or the claim
// was won on a run a peer had already carried to a terminal state. Neither an
// execution nor a failure — the scheduler counts it as settled, never as
// completed.
var ErrAdmissionSettled = errors.New("cluster: admission already settled")

// SchedulerBackend is the execution surface a Scheduler drives. core.System
// provides the canonical implementation; the interface exists because core
// already imports cluster, so the dependency must point this way.
//
// Executing a run claims its ID in the process's Owners set first and reads
// run state only after the claim — claim-before-read — so N members calling
// concurrently resolve to exactly one executor per run; the losers get
// ErrRunOwned.
type SchedulerBackend interface {
	// AdmissionHint returns a channel that becomes readable once an admission
	// has been durably queued: the control loop then drains PendingAdmissions
	// at once instead of at its next poll. The rows stay the truth — a hint may
	// be lost or spurious, and the poll timer covers both. A nil channel means
	// the backend has no hint; the loop then runs on the timer alone.
	AdmissionHint() <-chan struct{}
	// PendingAdmissions lists the admitted-but-unfinished runs, FIFO.
	PendingAdmissions() ([]workflow.Admission, error)
	// ExecuteAdmission claims the admitted run and carries it to a terminal
	// state under the orchestrator's name, removing the admission row once
	// the run has one. Returns ErrRunOwned when the run is executing already,
	// ErrRunInterrupted when execution died resumably, and
	// ErrAdmissionSettled when a peer had already finished it.
	ExecuteAdmission(ctx context.Context, adm workflow.Admission, orchestrator string) error
}

// SchedulerEvent is one observable scheduler action, for harnesses and logs.
type SchedulerEvent struct {
	// Kind is one of complete, settled, interrupted, lost, error.
	Kind string
	// Orchestrator is the emitting scheduler's name.
	Orchestrator string
	// Run is the subject run ID (empty for scheduler-level errors).
	Run string
	// Err carries the failure for lost/interrupted/error events.
	Err error
}

// Scheduler is one member of the process's scheduler pool. Each member drains
// the admission queue; members share one Owners set, so a drain skips the
// runs another member is executing:
//
//	admitted --claim--> running --complete--> finished
//	    ^                  |crash
//	    +---(next drain)---+
//
// A crashed run keeps its admission row, so the next drain of any member
// re-executes it, and re-executing an unfinished run resumes it by replay.
type Scheduler struct {
	// Name identifies this member; runs it executes are owned under it.
	Name string
	// Leases is the process's ownership set, shared by every member and by
	// the backend that claims runs in it.
	Leases *Owners
	// Backend executes runs.
	Backend SchedulerBackend
	// Poll is the control-loop tick (default 500ms, jittered ±50%): how often
	// the loop drains when no admission hint wakes it sooner.
	Poll time.Duration
	// Seed perturbs the jitter stream; the member name is mixed in, so peers
	// sharing a seed still de-correlate.
	Seed int64
	// OnEvent, when set, observes scheduler actions (chaos harness, logs).
	// Called synchronously from the control loop.
	OnEvent func(SchedulerEvent)

	mu       sync.Mutex
	rng      *rand.Rand
	counters map[string]int64
	running  bool
	// retries holds the runs whose last execution here failed with a plain
	// error (owning shard down, unreadable history): a drain skips each until
	// its retry time, so a run that keeps failing is not retried — and
	// reported — on every hint and tick.
	retries map[string]retry
	// admissionWait is EnqueuedAt → drain pick-up of every admission this
	// member went on to execute.
	admissionWait telemetry.Histogram

	ctx    context.Context
	cancel context.CancelFunc
	die    chan struct{}
	wg     sync.WaitGroup
}

// retry is one failing run's schedule: the next attempt is not before at, and
// each further failure doubles delay, from one poll period up to sixteen.
type retry struct {
	at    time.Time
	delay time.Duration
}

func (s *Scheduler) poll() time.Duration {
	if s.Poll > 0 {
		return s.Poll
	}
	return 500 * time.Millisecond
}

// Start runs the control loop until Stop.
func (s *Scheduler) Start() error {
	if s.Name == "" || s.Leases == nil || s.Backend == nil {
		return errors.New("cluster: scheduler needs Name, Leases and Backend")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return errors.New("cluster: scheduler already started")
	}
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	s.rng = rand.New(rand.NewSource(s.Seed ^ int64(h.Sum64())))
	s.retries = map[string]retry{}
	if s.counters == nil {
		// Listed from the start, so a scrape can tell zero from absent.
		s.counters = map[string]int64{}
		for _, k := range counterNames {
			s.counters[k] = 0
		}
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.die = make(chan struct{})
	s.running = true
	s.wg.Add(1)
	go s.controlLoop()
	return nil
}

// Stop ends the control loop; the execution in flight, if any, finishes
// first.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	close(s.die)
	s.mu.Unlock()
	s.wg.Wait()
	s.cancel()
}

// counterNames is every activity counter a scheduler keeps.
var counterNames = []string{
	"ticks", "wakes", "claims", "completed", "settled", "lost", "interrupted", "errors",
}

// Counters snapshots the scheduler's activity counters and its admission-wait
// latency summary (scheduler.admission_wait.*) for metrics.
func (s *Scheduler) Counters() map[string]float64 {
	s.mu.Lock()
	out := make(map[string]float64, len(s.counters)+6)
	for k, v := range s.counters {
		out["scheduler."+k] = float64(v)
	}
	s.mu.Unlock()
	return telemetry.MergeCounters(out, s.admissionWait.Snapshot().Counters("scheduler.admission_wait"))
}

func (s *Scheduler) count(k string) {
	s.mu.Lock()
	s.counters[k]++
	s.mu.Unlock()
}

func (s *Scheduler) emit(ev SchedulerEvent) {
	ev.Orchestrator = s.Name
	if s.OnEvent != nil {
		s.OnEvent(ev)
	}
}

// jittered returns d scaled by a uniform factor in [0.5, 1.5), so members
// started together do not tick together.
func (s *Scheduler) jittered(d time.Duration) time.Duration {
	s.mu.Lock()
	f := 0.5 + s.rng.Float64()
	s.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// controlLoop waits in one place for whichever comes first: Stop, the
// backend's admission hint, or the jittered poll timer; either of the last two
// drains the admission queue. The timer is armed when the previous tick's
// drain ends and is never reset by a hint, so its cadence is that of a loop
// with no hint at all. That makes the timer the recovery for every way a hint
// gets lost — coalesced into a wake whose member is still busy with an
// earlier run — and for an interrupted run, which raises no hint.
func (s *Scheduler) controlLoop() {
	defer s.wg.Done()
	hint := s.Backend.AdmissionHint()
	tick := time.NewTimer(s.jittered(s.poll()))
	defer tick.Stop()
	for {
		select {
		case <-s.die:
			return
		case <-hint:
			s.count("wakes")
			s.drainAdmissions()
		case <-tick.C:
			s.count("ticks")
			s.drainAdmissions()
			tick.Reset(s.jittered(s.poll()))
		}
	}
}

// drainAdmissions walks the pending admissions in FIFO order and executes
// each one no member is executing.
func (s *Scheduler) drainAdmissions() {
	pending, err := s.Backend.PendingAdmissions()
	if err != nil {
		s.count("errors")
		s.emit(SchedulerEvent{Kind: "error", Err: err})
		return
	}
	s.mu.Lock()
	for runID := range s.retries {
		if !slices.ContainsFunc(pending, func(a workflow.Admission) bool { return a.RunID == runID }) {
			delete(s.retries, runID) // settled by a peer: no retry left to schedule
		}
	}
	s.mu.Unlock()
	for _, adm := range pending {
		select {
		case <-s.die:
			return
		default:
		}
		if s.Leases.Held(adm.RunID) || s.backingOff(adm.RunID) {
			continue
		}
		wait := time.Since(adm.EnqueuedAt)
		if s.execute(adm) {
			s.admissionWait.Observe(wait)
		}
	}
}

// execute runs one claim-and-execute attempt and classifies the outcome. It
// reports whether this member executed the run: carried it to a terminal state
// or was interrupted carrying it.
func (s *Scheduler) execute(adm workflow.Admission) (executed bool) {
	s.count("claims")
	err := s.Backend.ExecuteAdmission(s.ctx, adm, s.Name)
	ev := SchedulerEvent{Run: adm.RunID, Err: err}
	switch {
	case err == nil:
		s.count("completed")
		ev.Kind, executed = "complete", true
	case errors.Is(err, ErrAdmissionSettled):
		// A peer finished the run before this attempt got to it (a pending
		// list goes stale while its earlier entries execute): nothing ran
		// here, so it is neither completed nor lost.
		s.count("settled")
		ev.Kind, ev.Err = "settled", nil
	case errors.Is(err, ErrRunOwned):
		// A peer claimed the run between the Held check and this claim:
		// their execution is the pool's.
		s.count("lost")
		ev.Kind = "lost"
	case errors.Is(err, ErrRunInterrupted):
		// The run died resumably under our claim (chaos crash cut); its
		// admission stays, and the next drain resumes it.
		s.count("interrupted")
		ev.Kind, executed = "interrupted", true
	default:
		s.count("errors")
		ev.Kind = "error"
	}
	s.mu.Lock()
	if ev.Kind == "error" {
		r := s.retries[adm.RunID]
		r.delay = min(max(2*r.delay, s.poll()), 16*s.poll())
		r.at = time.Now().Add(time.Duration(float64(r.delay) * (0.5 + s.rng.Float64())))
		s.retries[adm.RunID] = r
	} else {
		delete(s.retries, adm.RunID)
	}
	s.mu.Unlock()
	s.emit(ev)
	return executed
}

// backingOff reports whether runID failed here and its retry time is ahead.
func (s *Scheduler) backingOff(runID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.retries[runID]
	return ok && time.Now().Before(r.at)
}
