package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/workflow"
)

// fakeBackend is an in-memory SchedulerBackend that claims runs in a real
// Owners set — claim-before-read, exactly like core — so scheduler tests
// exercise the genuine contention paths without a full detection system.
type fakeBackend struct {
	owners *Owners
	// hint, when set, is raised by admit the way workflow.AdmissionQueue
	// raises its own; nil is a backend with no hint (poll timer only).
	hint chan struct{}
	// entered, when set, receives the orchestrator of every execution that
	// reaches a gated run, just before it blocks on the gate.
	entered chan string

	mu          sync.Mutex
	gates       map[string]chan struct{} // run → executions block until closed
	pending     map[string]workflow.Admission
	crashOnce   map[string]bool // interrupted on first execution attempt
	failures    map[string]int  // plain errors still to return before executing
	interrupted map[string]bool // died mid-run, admission still pending
	executed    map[string][]string
}

func newFakeBackend(owners *Owners) *fakeBackend {
	return &fakeBackend{
		owners:      owners,
		gates:       map[string]chan struct{}{},
		pending:     map[string]workflow.Admission{},
		crashOnce:   map[string]bool{},
		failures:    map[string]int{},
		interrupted: map[string]bool{},
		executed:    map[string][]string{},
	}
}

func (b *fakeBackend) admit(runID string, crash bool) {
	b.mu.Lock()
	b.pending[runID] = workflow.Admission{RunID: runID, EnqueuedAt: time.Now()}
	if crash {
		b.crashOnce[runID] = true
	}
	b.mu.Unlock()
	b.raise()
}

// raise makes the hint readable, after the row is in place and without
// blocking — the AdmissionQueue contract.
func (b *fakeBackend) raise() {
	select {
	case b.hint <- struct{}{}:
	default:
	}
}

func (b *fakeBackend) AdmissionHint() <-chan struct{} { return b.hint }

func (b *fakeBackend) PendingAdmissions() ([]workflow.Admission, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]workflow.Admission, 0, len(b.pending))
	for _, a := range b.pending {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RunID < out[j].RunID })
	return out, nil
}

func (b *fakeBackend) ExecuteAdmission(_ context.Context, adm workflow.Admission, orch string) error {
	if err := b.owners.Claim(adm.RunID, orch); err != nil {
		return err
	}
	defer b.owners.Release(adm.RunID)
	b.mu.Lock()
	if _, still := b.pending[adm.RunID]; !still {
		// Claim-before-read: the claim was won on a run a peer already
		// finished. Nothing to execute.
		b.mu.Unlock()
		return ErrAdmissionSettled
	}
	if b.failures[adm.RunID] > 0 {
		b.failures[adm.RunID]--
		b.mu.Unlock()
		return errors.New("owning shard down")
	}
	if b.crashOnce[adm.RunID] {
		delete(b.crashOnce, adm.RunID)
		b.interrupted[adm.RunID] = true
		b.mu.Unlock()
		return fmt.Errorf("%w: chaos cut", ErrRunInterrupted)
	}
	if gate := b.gates[adm.RunID]; gate != nil {
		b.mu.Unlock()
		b.entered <- orch
		<-gate
		b.mu.Lock()
	}
	// Executing an interrupted admission again IS the resume (core converges
	// both paths on history replay).
	delete(b.interrupted, adm.RunID)
	delete(b.pending, adm.RunID)
	b.executed[adm.RunID] = append(b.executed[adm.RunID], orch)
	b.mu.Unlock()
	return nil
}

func (b *fakeBackend) done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending) == 0 && len(b.interrupted) == 0
}

func (b *fakeBackend) executions() map[string][]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string][]string, len(b.executed))
	for k, v := range b.executed {
		out[k] = append([]string(nil), v...)
	}
	return out
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSchedulerClaimRace is the arbitration contract under -race: N members
// drain the same admission queue concurrently and every run executes exactly
// once — the Owners claim picks the winner, and a drain skips what a peer
// holds.
func TestSchedulerClaimRace(t *testing.T) {
	owners := &Owners{}
	be := newFakeBackend(owners)
	const runs = 12
	for i := 0; i < runs; i++ {
		be.admit(fmt.Sprintf("run-%06d", i), false)
	}
	var pool []*Scheduler
	for i := 0; i < 3; i++ {
		s := &Scheduler{
			Name: fmt.Sprintf("orch-%d", i), Leases: owners, Backend: be,
			Poll: 5 * time.Millisecond, Seed: int64(i),
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		pool = append(pool, s)
	}
	defer func() {
		for _, s := range pool {
			s.Stop()
		}
	}()
	waitFor(t, 10*time.Second, be.done, "all admissions drained")
	for id, orchs := range be.executions() {
		if len(orchs) != 1 {
			t.Fatalf("run %s executed %d times by %v", id, len(orchs), orchs)
		}
	}
	if n := len(be.executions()); n != runs {
		t.Fatalf("executed %d runs, want %d", n, runs)
	}
}

// TestSchedulerRescue covers the self-healing loop: a run interrupted
// mid-execution keeps its admission, and the drain after the interruption
// executes it again — the resume — so it completes exactly once.
func TestSchedulerRescue(t *testing.T) {
	owners := &Owners{}
	be := newFakeBackend(owners)
	be.admit("run-000001", true) // first executor is interrupted
	be.admit("run-000002", false)

	var mu sync.Mutex
	var kinds []string
	hook := func(ev SchedulerEvent) {
		if ev.Run == "run-000001" {
			mu.Lock()
			kinds = append(kinds, ev.Kind)
			mu.Unlock()
		}
	}
	a := &Scheduler{Name: "orch-a", Leases: owners, Backend: be, Poll: 5 * time.Millisecond, Seed: 7, OnEvent: hook}
	b := &Scheduler{Name: "orch-b", Leases: owners, Backend: be, Poll: 5 * time.Millisecond, Seed: 8, OnEvent: hook}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()

	waitFor(t, 10*time.Second, be.done, "the interrupted run to be resumed and everything drained")
	for id, orchs := range be.executions() {
		if len(orchs) != 1 {
			t.Fatalf("run %s executed %d times by %v", id, len(orchs), orchs)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(kinds) == 2
	}, "the interrupted run's events")
	mu.Lock()
	defer mu.Unlock()
	if kinds[0] != "interrupted" || kinds[1] != "complete" {
		t.Fatalf("events for the interrupted run = %v, want [interrupted complete]", kinds)
	}
}
