package cluster

import (
	"runtime"
	"testing"
	"time"
)

// The wake contract: a backend's admission hint makes the control loop drain
// at once. Every test but the starvation one runs its members at Poll: 1h
// against a 5 s deadline, so only the wake can pass it.

const wakeDeadline = 5 * time.Second

// hintedBackend is the fake backend with the hint AdmissionQueue carries.
func hintedBackend(leases *Store, ttl time.Duration) *fakeBackend {
	be := newFakeBackend(leases, ttl)
	be.hint = make(chan struct{}, 1)
	return be
}

func parkedMember(t *testing.T, name string, store *Store, be *fakeBackend) *Scheduler {
	t.Helper()
	s := &Scheduler{Name: name, Leases: store, Backend: be, TTL: time.Hour, Poll: time.Hour, Seed: 1}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWakeExecutesPushedAdmission: an admission pushed after Start executes
// without a single poll tick, and its queue wait is observed.
func TestWakeExecutesPushedAdmission(t *testing.T) {
	store, _ := leaseStore(t)
	be := hintedBackend(store, time.Hour)
	s := parkedMember(t, "orch-a", store, be)
	defer s.Stop()

	be.admit("run-000001", false)
	waitFor(t, wakeDeadline, be.done, "the pushed admission to execute")
	// The counters move on the scheduler goroutine after the backend returns.
	waitFor(t, wakeDeadline, func() bool { return s.Counters()["scheduler.completed"] == 1 }, "completed to be counted")
	c := s.Counters()
	if c["scheduler.wakes"] < 1 || c["scheduler.ticks"] != 0 {
		t.Fatalf("wakes = %v, ticks = %v; want the wake and no tick", c["scheduler.wakes"], c["scheduler.ticks"])
	}
	waitFor(t, wakeDeadline, func() bool { return s.Counters()["scheduler.admission_wait.count"] == 1 }, "the admission wait to be observed")
}

// TestWakeGoesToIdlePeer: while one member is blocked inside an execution, an
// admission pushed meanwhile is executed by the other member — every member
// listens to the same hint, so it reaches whoever is parked.
func TestWakeGoesToIdlePeer(t *testing.T) {
	store, _ := leaseStore(t)
	be := hintedBackend(store, time.Hour)
	be.entered = make(chan string, 2)
	gate := make(chan struct{})
	be.gates["run-000001"] = gate
	a := parkedMember(t, "orch-a", store, be)
	b := parkedMember(t, "orch-b", store, be)
	defer a.Stop()
	defer b.Stop()
	release := func() {
		if gate != nil {
			close(gate)
			gate = nil
		}
	}
	defer release() // before the Stops: a member blocked at the gate never stops

	be.admit("run-000001", false)
	var busy string
	select {
	case busy = <-be.entered:
	case <-time.After(wakeDeadline):
		t.Fatal("timed out waiting for a member to enter the gated run")
	}

	be.admit("run-000002", false)
	waitFor(t, wakeDeadline, func() bool { return len(be.executions()["run-000002"]) == 1 }, "the idle peer to execute the second admission")
	ex := be.executions()
	if got := ex["run-000002"][0]; got == busy {
		t.Fatalf("second admission executed by %s, the member still blocked in the first", got)
	}
	if len(ex["run-000001"]) != 0 {
		t.Fatalf("gated run finished early: %v", ex["run-000001"])
	}

	release()
	waitFor(t, wakeDeadline, be.done, "the gated run to finish")
	if got := be.executions()["run-000001"]; len(got) != 1 || got[0] != busy {
		t.Fatalf("gated run executed by %v, want [%s]", got, busy)
	}
}

// TestWakeParkedLoopStops: Stop and Kill return while the loop is parked on
// the hint, and leave no goroutine behind.
func TestWakeParkedLoopStops(t *testing.T) {
	for _, tc := range []struct {
		name string
		halt func(*Scheduler)
	}{
		{"Stop", (*Scheduler).Stop},
		{"Kill", (*Scheduler).Kill},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, _ := leaseStore(t)
			be := hintedBackend(store, time.Hour)
			baseline := runtime.NumGoroutine()
			s := parkedMember(t, "orch-a", store, be)

			halted := make(chan struct{})
			go func() {
				tc.halt(s)
				close(halted)
			}()
			select {
			case <-halted:
			case <-time.After(wakeDeadline):
				t.Fatalf("%s did not return with the loop parked on the hint", tc.name)
			}
			waitFor(t, wakeDeadline, func() bool { return runtime.NumGoroutine() <= baseline }, "the scheduler's goroutines to exit")
		})
	}
}

// TestWakeCannotStarveTimer: with the hint held permanently raised, the poll
// timer still gets its turns — a lapsed run only the rescue sweep can finish is
// rescued — and the heartbeat keeps the member live.
func TestWakeCannotStarveTimer(t *testing.T) {
	store, _ := leaseStore(t)
	be := hintedBackend(store, 20*time.Millisecond)
	// A run whose owner died mid-flight: lease abandoned, no admission row, so
	// draining admissions can never finish it.
	if _, err := store.Acquire("run-000001", "orch-dead", 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	be.interrupted["run-000001"] = true

	stop := make(chan struct{})
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		for {
			select {
			case <-stop:
				return
			default:
				be.raise()
				runtime.Gosched()
			}
		}
	}()
	defer func() {
		close(stop)
		<-pushed
	}()

	const ttl = 200 * time.Millisecond
	s := &Scheduler{Name: "orch-a", Leases: store, Backend: be, TTL: ttl, Poll: 5 * time.Millisecond, Seed: 1}
	started := time.Now()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	waitFor(t, wakeDeadline, be.done, "the lapsed run to be rescued under a raised hint")
	if got := be.executions()["run-000001"]; len(got) != 1 || got[0] != "orch-a" {
		t.Fatalf("lapsed run executed by %v, want [orch-a]", got)
	}
	waitFor(t, wakeDeadline, func() bool { return s.Counters()["scheduler.rescued"] == 1 }, "rescued to be counted")
	if c := s.Counters(); c["scheduler.wakes"] == 0 || c["scheduler.ticks"] == 0 {
		t.Fatalf("wakes = %v, ticks = %v; want both paths to have run", c["scheduler.wakes"], c["scheduler.ticks"])
	}

	// Past the first membership lease's expiry only a renewal keeps it live.
	time.Sleep(time.Until(started.Add(2 * ttl)))
	for _, m := range store.Members(time.Now()) {
		if m.Name == "orch-a" && !m.Live {
			t.Fatal("member aged out while its loop was being woken")
		}
	}
}
