package cluster

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// ErrRunInterrupted is how a SchedulerBackend reports an execution that died
// mid-run leaving a resumable prefix (the in-process stand-in for a process
// death, e.g. core's CrashError). The scheduler backs the run off until its
// abandoned lease ages out, then any live peer rescues it.
var ErrRunInterrupted = errors.New("cluster: run interrupted")

// ErrAdmissionSettled is how a SchedulerBackend reports a claim attempt that
// found nothing left to do: the admission row was already gone, or the claim
// was won on a run a peer had already carried to a terminal state. Neither an
// execution nor a failure — the scheduler counts it as settled, never as
// completed or rescued.
var ErrAdmissionSettled = errors.New("cluster: admission already settled")

// SchedulerBackend is the execution surface a Scheduler drives. core.System
// provides the canonical implementation; the interface exists because core
// already imports cluster, so the dependency must point this way.
//
// Every method that executes a run claims the run's lease first (fenced
// Acquire + history-fence bump) and reads run state only after the claim —
// claim-before-read — so N schedulers calling concurrently resolve to
// exactly one executor per run; the losers get ErrLeaseHeld.
type SchedulerBackend interface {
	// AdmissionHint returns a channel that becomes readable once an admission
	// has been durably queued: the control loop then drains PendingAdmissions
	// at once instead of at its next poll. The rows stay the truth — a hint may
	// be lost or spurious, and the poll timer covers both. A nil channel means
	// the backend has no hint; the loop then runs on the timer alone.
	AdmissionHint() <-chan struct{}
	// PendingAdmissions lists the admitted-but-unstarted runs, FIFO.
	PendingAdmissions() ([]workflow.Admission, error)
	// ExecuteAdmission claims the admitted run and carries it to a terminal
	// state under the orchestrator's name, removing the admission row once
	// the run can no longer need rescuing. Returns ErrLeaseHeld when a peer
	// owns the run, ErrRunInterrupted when execution died resumably, and
	// ErrAdmissionSettled when a peer had already finished it.
	ExecuteAdmission(ctx context.Context, adm workflow.Admission, orchestrator string) error
	// RescueCandidates lists unfinished runs whose ownership lapsed: a lease
	// row exists (the run was orchestrated) but is no longer live. Runs that
	// never took a lease are the startup sweep's business, not the pool's.
	RescueCandidates() ([]string, error)
	// RescueRun claims the lapsed run and resumes it to completion under the
	// orchestrator's name (pure history replay), clearing any admission row.
	// Returns the same errors as ExecuteAdmission.
	RescueRun(ctx context.Context, runID, orchestrator string) error
}

// SchedulerEvent is one observable scheduler action, for harnesses and logs.
type SchedulerEvent struct {
	// Kind is one of complete, rescue, settled, interrupted, lost, error.
	Kind string
	// Orchestrator is the emitting scheduler's name.
	Orchestrator string
	// Run is the subject run ID (empty for scheduler-level errors).
	Run string
	// Token is the fencing token observed after the action, when relevant.
	Token int64
	// Err carries the failure for lost/interrupted/error events.
	Err error
}

// Scheduler is one member of the self-healing orchestrator pool. Each member
// heartbeats its membership row, drains the shared admission queue, and
// rescues runs whose owner died — all arbitrated through the fenced lease
// store, so any number of peers converge without coordination beyond it:
//
//	admitted --claim--> running --complete--> finished
//	    ^                  |crash
//	    |                  v
//	    +---(lease ages out; any peer re-claims via rescue)---+
//
// Claim losses back off exponentially with deterministic per-member jitter
// (anti-herd): when K peers watch the same lapsed run, the winner is decided
// by the fence CAS and the losers spread their retries instead of stampeding
// every TTL.
type Scheduler struct {
	// Name identifies this orchestrator in leases and membership.
	Name string
	// Leases is the shared lease store (membership + run ownership).
	Leases *Store
	// Backend executes and rescues runs.
	Backend SchedulerBackend
	// TTL is the membership lease time-to-live (default 2s); run-lease TTLs
	// are the backend's business.
	TTL time.Duration
	// Poll is the control-loop tick (default TTL/4): how often the loop drains
	// and sweeps for lapsed runs when no admission hint wakes it sooner.
	Poll time.Duration
	// Seed perturbs the jitter stream; the member name is mixed in, so peers
	// sharing a seed still de-correlate.
	Seed int64
	// OnEvent, when set, observes scheduler actions (chaos harness, logs).
	// Called synchronously from the control loop.
	OnEvent func(SchedulerEvent)

	mu       sync.Mutex
	rng      *rand.Rand
	backoff  map[string]*backoffState
	counters map[string]int64
	running  bool
	dead     bool
	// admissionWait is EnqueuedAt → drain pick-up of every admission this
	// member went on to execute.
	admissionWait telemetry.Histogram

	ctx    context.Context
	cancel context.CancelFunc
	die    chan struct{}
	wg     sync.WaitGroup
}

// backoffState tracks one resource's claim-retry schedule.
type backoffState struct {
	until time.Time
	delay time.Duration
}

func (s *Scheduler) ttl() time.Duration {
	if s.TTL > 0 {
		return s.TTL
	}
	return 2 * time.Second
}

func (s *Scheduler) poll() time.Duration {
	if s.Poll > 0 {
		return s.Poll
	}
	return s.ttl() / 4
}

// Start joins the pool: the first heartbeat announces membership, then the
// heartbeat and control loops run until Stop or Kill.
func (s *Scheduler) Start() error {
	if s.Name == "" || s.Leases == nil || s.Backend == nil {
		return errors.New("cluster: scheduler needs Name, Leases and Backend")
	}
	s.mu.Lock()
	if s.running || s.dead {
		s.mu.Unlock()
		return errors.New("cluster: scheduler already started")
	}
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	s.rng = rand.New(rand.NewSource(s.Seed ^ int64(h.Sum64())))
	s.backoff = map[string]*backoffState{}
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
	s.mu.Unlock()

	if _, err := s.Leases.Heartbeat(s.Name, s.ttl()); err != nil {
		s.mu.Lock()
		s.running = false
		s.mu.Unlock()
		return err
	}
	s.wg.Add(2)
	go s.heartbeatLoop()
	go s.controlLoop()
	return nil
}

// Stop leaves the pool cleanly: loops wind down, in-flight work finishes,
// and the membership row is expired in place so peers see the departure
// immediately instead of waiting out the TTL.
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
	s.Leases.Leave(s.Name)
}

// Kill simulates this orchestrator's death: loops stop scheduling and
// heartbeating but nothing is released — the membership row and any held run
// leases age out exactly as a crashed process's would, and peers steal them.
// In-flight backend work is not cancelled (a real death would not have
// politely finalized a run either way; resumable interruption comes from the
// run's own crash path).
func (s *Scheduler) Kill() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	s.dead = true
	close(s.die)
	s.mu.Unlock()
	s.wg.Wait()
}

// counterNames is every activity counter a scheduler keeps.
var counterNames = []string{
	"ticks", "wakes", "claims", "completed", "rescued", "settled",
	"lost", "interrupted", "errors", "heartbeat_errors",
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

// sleep waits d or until the scheduler dies; false means dying.
func (s *Scheduler) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.die:
		return false
	case <-t.C:
		return true
	}
}

func (s *Scheduler) heartbeatLoop() {
	defer s.wg.Done()
	interval := s.ttl() / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	for s.sleep(interval) {
		if _, err := s.Leases.Heartbeat(s.Name, s.ttl()); err != nil {
			// Another incarnation holds our name: observe and keep trying —
			// the row ages out if they die, and claims stay safe regardless
			// (run ownership is arbitrated per run, not per member).
			s.count("heartbeat_errors")
			s.emit(SchedulerEvent{Kind: "error", Err: err})
		}
	}
}

// jittered returns d scaled by a uniform factor in [0.5, 1.5).
func (s *Scheduler) jittered(d time.Duration) time.Duration {
	s.mu.Lock()
	f := 0.5 + s.rng.Float64()
	s.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// backingOff reports whether resource is backing off at now.
func (s *Scheduler) backingOff(resource string, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.backoff[resource]
	return b != nil && now.Before(b.until)
}

// armBackoff arms (or doubles) the resource's backoff, jittered.
func (s *Scheduler) armBackoff(resource string, now time.Time) {
	base := s.poll()
	s.mu.Lock()
	b := s.backoff[resource]
	if b == nil {
		b = &backoffState{delay: base}
		s.backoff[resource] = b
	} else {
		b.delay *= 2
		if max := 16 * base; b.delay > max {
			b.delay = max
		}
	}
	f := 0.5 + s.rng.Float64()
	b.until = now.Add(time.Duration(float64(b.delay) * f))
	s.mu.Unlock()
}

// clearBackoff forgets the resource's schedule (it was won or vanished).
func (s *Scheduler) clearBackoff(resource string) {
	s.mu.Lock()
	delete(s.backoff, resource)
	s.mu.Unlock()
}

// controlLoop waits in one place for whichever comes first: death, the
// backend's admission hint, or the jittered poll timer. A hint drains the
// admission queue and nothing else. The timer is armed when the previous
// tick's work ends and is never reset by a hint, so its cadence is that of a
// loop with no hint at all; a tick drains too and then sweeps for lapsed runs.
// That makes the timer the recovery for every way a hint gets lost: raised in
// another process, taken by a member that died before draining, or coalesced
// into a wake whose member is still busy with an earlier run.
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
			select {
			case <-s.die:
				return
			default:
			}
			s.rescueLapsed()
			tick.Reset(s.jittered(s.poll()))
		}
	}
}

// shuffled returns a copy of items in this member's own random order: peers
// scanning the same queue start from different ends, so the first claim
// attempts spread across the pool instead of stampeding the head item.
func shuffled[T any](rng *rand.Rand, mu *sync.Mutex, items []T) []T {
	out := make([]T, len(items))
	copy(out, items)
	mu.Lock()
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	mu.Unlock()
	return out
}

func (s *Scheduler) drainAdmissions() {
	pending, err := s.Backend.PendingAdmissions()
	if err != nil {
		s.count("errors")
		s.emit(SchedulerEvent{Kind: "error", Err: err})
		return
	}
	now := time.Now()
	for _, adm := range shuffled(s.rng, &s.mu, pending) {
		select {
		case <-s.die:
			return
		default:
		}
		if s.backingOff(adm.RunID, now) {
			continue
		}
		wait := now.Sub(adm.EnqueuedAt)
		if s.runOne(adm.RunID, "complete", func() error {
			return s.Backend.ExecuteAdmission(s.ctx, adm, s.Name)
		}) {
			s.admissionWait.Observe(wait)
		}
		now = time.Now()
	}
}

func (s *Scheduler) rescueLapsed() {
	candidates, err := s.Backend.RescueCandidates()
	if err != nil {
		s.count("errors")
		s.emit(SchedulerEvent{Kind: "error", Err: err})
		return
	}
	now := time.Now()
	for _, runID := range shuffled(s.rng, &s.mu, candidates) {
		select {
		case <-s.die:
			return
		default:
		}
		if s.backingOff(runID, now) {
			continue
		}
		s.runOne(runID, "rescue", func() error {
			return s.Backend.RescueRun(s.ctx, runID, s.Name)
		})
		now = time.Now()
	}
}

// runOne executes one claim-and-run attempt and classifies the outcome. It
// reports whether this member executed the run: carried it to a terminal state
// or was interrupted carrying it.
func (s *Scheduler) runOne(runID, successKind string, do func() error) (executed bool) {
	s.count("claims")
	err := do()
	token := s.Leases.db.FenceToken(fenceName(runID))
	switch {
	case err == nil:
		s.count(successKind + "d")
		s.clearBackoff(runID)
		s.emit(SchedulerEvent{Kind: successKind, Run: runID, Token: token})
		return true
	case errors.Is(err, ErrAdmissionSettled):
		// A peer finished the run before this attempt got to it (a pending
		// list goes stale while its earlier entries execute): nothing ran
		// here, so it is neither completed nor lost.
		s.count("settled")
		s.clearBackoff(runID)
		s.emit(SchedulerEvent{Kind: "settled", Run: runID, Token: token})
	case errors.Is(err, ErrLeaseHeld) || errors.Is(err, ErrLeaseLost):
		// A peer owns the run (or stole it mid-flight): their success is the
		// pool's success. Back off so the next look is staggered.
		s.count("lost")
		s.armBackoff(runID, time.Now())
		s.emit(SchedulerEvent{Kind: "lost", Run: runID, Token: token, Err: err})
	case errors.Is(err, ErrRunInterrupted):
		// The run died resumably under our claim (chaos crash cut). Its lease
		// was abandoned, not released: back off past the expiry and let any
		// live peer — possibly us — rescue it.
		s.count("interrupted")
		s.armBackoff(runID, time.Now())
		s.emit(SchedulerEvent{Kind: "interrupted", Run: runID, Token: token, Err: err})
		return true
	default:
		s.count("errors")
		s.armBackoff(runID, time.Now())
		s.emit(SchedulerEvent{Kind: "error", Run: runID, Token: token, Err: err})
	}
	return false
}
