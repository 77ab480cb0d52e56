package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/workflow"
)

// fakeBackend is an in-memory SchedulerBackend that arbitrates execution
// through the real lease store — claim-before-read, exactly like core — so
// scheduler tests exercise the genuine contention paths without a full
// detection system.
type fakeBackend struct {
	leases *Store
	ttl    time.Duration
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
	interrupted map[string]bool // lease abandoned, awaiting rescue
	executed    map[string][]string
}

func newFakeBackend(leases *Store, ttl time.Duration) *fakeBackend {
	return &fakeBackend{
		leases: leases, ttl: ttl,
		gates:       map[string]chan struct{}{},
		pending:     map[string]workflow.Admission{},
		crashOnce:   map[string]bool{},
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
	l, err := b.leases.Acquire(adm.RunID, orch, b.ttl)
	if err != nil {
		return err
	}
	b.mu.Lock()
	if _, still := b.pending[adm.RunID]; !still {
		// Claim-before-read: we won an expired lease on a run a peer already
		// finished. Nothing to execute.
		b.mu.Unlock()
		if err := b.leases.Release(l); err != nil {
			return err
		}
		return ErrAdmissionSettled
	}
	if b.interrupted[adm.RunID] {
		// An earlier attempt died mid-run: executing the admission now IS the
		// resume (core converges both paths on history replay).
		delete(b.interrupted, adm.RunID)
		delete(b.pending, adm.RunID)
		b.executed[adm.RunID] = append(b.executed[adm.RunID], orch)
		b.mu.Unlock()
		return b.leases.Release(l)
	}
	if b.crashOnce[adm.RunID] {
		delete(b.crashOnce, adm.RunID)
		b.interrupted[adm.RunID] = true
		b.mu.Unlock()
		// Abandon: the lease ages out like a dead process's.
		return fmt.Errorf("%w: chaos cut", ErrRunInterrupted)
	}
	if gate := b.gates[adm.RunID]; gate != nil {
		b.mu.Unlock()
		b.entered <- orch
		<-gate
		b.mu.Lock()
	}
	delete(b.pending, adm.RunID)
	b.executed[adm.RunID] = append(b.executed[adm.RunID], orch)
	b.mu.Unlock()
	return b.leases.Release(l)
}

func (b *fakeBackend) RescueCandidates() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	var out []string
	for id := range b.interrupted {
		if l, ok := b.leases.Get(id); ok && !l.Live(now) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (b *fakeBackend) RescueRun(_ context.Context, runID, orch string) error {
	l, err := b.leases.Acquire(runID, orch, b.ttl)
	if err != nil {
		return err
	}
	b.mu.Lock()
	if !b.interrupted[runID] {
		b.mu.Unlock()
		if err := b.leases.Release(l); err != nil {
			return err
		}
		return ErrAdmissionSettled
	}
	delete(b.interrupted, runID)
	delete(b.pending, runID)
	b.executed[runID] = append(b.executed[runID], orch)
	b.mu.Unlock()
	return b.leases.Release(l)
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

func TestSchedulerMembership(t *testing.T) {
	store, _ := leaseStore(t)
	be := newFakeBackend(store, 50*time.Millisecond)
	a := &Scheduler{Name: "orch-a", Leases: store, Backend: be, TTL: 60 * time.Millisecond, Seed: 1}
	b := &Scheduler{Name: "orch-b", Leases: store, Backend: be, TTL: 60 * time.Millisecond, Seed: 1}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	members := store.Members(time.Now())
	if len(members) != 2 || members[0].Name != "orch-a" || members[1].Name != "orch-b" {
		t.Fatalf("members = %+v, want orch-a + orch-b", members)
	}
	for _, m := range members {
		if !m.Live {
			t.Fatalf("member %s not live", m.Name)
		}
	}

	// A clean Stop leaves immediately: the row expires in place.
	b.Stop()
	for _, m := range store.Members(time.Now()) {
		if m.Name == "orch-b" && m.Live {
			t.Fatal("stopped member still live")
		}
	}

	// A kill leaves the row to age out: live until the TTL passes, then dead
	// — while the survivor keeps renewing.
	a.Kill()
	waitFor(t, time.Second, func() bool {
		for _, m := range store.Members(time.Now()) {
			if m.Name == "orch-a" {
				return !m.Live
			}
		}
		return false
	}, "killed member to age out")
}

// TestSchedulerClaimRace is the arbitration contract under -race: N peers
// drain the same admission queue concurrently and every run executes exactly
// once — the lease CAS picks the winner, losers observe ErrLeaseHeld.
func TestSchedulerClaimRace(t *testing.T) {
	store, _ := leaseStore(t)
	be := newFakeBackend(store, 80*time.Millisecond)
	const runs = 12
	for i := 0; i < runs; i++ {
		be.admit(fmt.Sprintf("run-%06d", i), false)
	}
	var pool []*Scheduler
	for i := 0; i < 3; i++ {
		s := &Scheduler{
			Name: fmt.Sprintf("orch-%d", i), Leases: store, Backend: be,
			TTL: 80 * time.Millisecond, Poll: 5 * time.Millisecond, Seed: int64(i),
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
// mid-execution (lease abandoned) is rescued by a surviving peer after the
// lease ages out, even when the orchestrator that claimed it first is dead.
func TestSchedulerRescue(t *testing.T) {
	store, _ := leaseStore(t)
	be := newFakeBackend(store, 60*time.Millisecond)
	be.admit("run-000001", true) // first executor is interrupted
	be.admit("run-000002", false)

	a := &Scheduler{Name: "orch-a", Leases: store, Backend: be,
		TTL: 60 * time.Millisecond, Poll: 5 * time.Millisecond, Seed: 7}
	b := &Scheduler{Name: "orch-b", Leases: store, Backend: be,
		TTL: 60 * time.Millisecond, Poll: 5 * time.Millisecond, Seed: 8}
	var mu sync.Mutex
	var interruptedBy string
	hook := func(ev SchedulerEvent) {
		if ev.Kind == "interrupted" {
			mu.Lock()
			if interruptedBy == "" {
				interruptedBy = ev.Orchestrator
			}
			mu.Unlock()
		}
	}
	a.OnEvent, b.OnEvent = hook, hook
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()

	// As soon as one orchestrator has been interrupted mid-run, kill it: the
	// rescue must come from the survivor or not at all.
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return interruptedBy != ""
	}, "a run to be interrupted")
	mu.Lock()
	victim := interruptedBy
	mu.Unlock()
	killed := a
	survivor := b
	if victim == "orch-b" {
		killed, survivor = b, a
	}
	killed.Kill()

	waitFor(t, 10*time.Second, be.done, "survivor to rescue and drain everything")
	for id, orchs := range be.executions() {
		if len(orchs) != 1 {
			t.Fatalf("run %s executed %d times by %v", id, len(orchs), orchs)
		}
	}
	if got := be.executions()["run-000001"][0]; got != survivor.Name {
		t.Fatalf("rescue executed by %s, want survivor %s", got, survivor.Name)
	}
	// The rescued run's fence token moved past the abandoned claim: token 1
	// was the interrupted claim, the rescue stole at ≥2.
	if l, ok := store.Get("run-000001"); !ok || l.Token < 2 {
		t.Fatalf("rescued lease = %+v, want token ≥ 2", l)
	}
}
