package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The wake contract: a backend's admission hint makes the control loop drain
// at once. Every test but the starvation one runs its members at Poll: 1h
// against a 5 s deadline, so only the wake can pass it.

const wakeDeadline = 5 * time.Second

// hintedBackend is the fake backend with the hint AdmissionQueue carries.
func hintedBackend(owners *Owners) *fakeBackend {
	be := newFakeBackend(owners)
	be.hint = make(chan struct{}, 1)
	return be
}

func parkedMember(t *testing.T, name string, owners *Owners, be *fakeBackend) *Scheduler {
	t.Helper()
	s := &Scheduler{Name: name, Leases: owners, Backend: be, Poll: time.Hour, Seed: 1}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWakeExecutesPushedAdmission: an admission pushed after Start executes
// without a single poll tick, and its queue wait is observed.
func TestWakeExecutesPushedAdmission(t *testing.T) {
	owners := &Owners{}
	be := hintedBackend(owners)
	s := parkedMember(t, "orch-a", owners, be)
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
	owners := &Owners{}
	be := hintedBackend(owners)
	be.entered = make(chan string, 2)
	gate := make(chan struct{})
	be.gates["run-000001"] = gate
	a := parkedMember(t, "orch-a", owners, be)
	b := parkedMember(t, "orch-b", owners, be)
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

// TestWakeParkedLoopStops: Stop returns while the loop is parked on the
// hint, and leaves no goroutine behind.
func TestWakeParkedLoopStops(t *testing.T) {
	t.Run("Stop", func(t *testing.T) {
		owners := &Owners{}
		be := hintedBackend(owners)
		baseline := runtime.NumGoroutine()
		s := parkedMember(t, "orch-a", owners, be)

		halted := make(chan struct{})
		go func() {
			s.Stop()
			close(halted)
		}()
		select {
		case <-halted:
		case <-time.After(wakeDeadline):
			t.Fatal("Stop did not return with the loop parked on the hint")
		}
		waitFor(t, wakeDeadline, func() bool { return runtime.NumGoroutine() <= baseline }, "the scheduler's goroutines to exit")
	})
}

// TestWakeCannotStarveTimer: with the hint held permanently raised, the poll
// timer still gets its turns, and an interrupted run — which raises no hint of
// its own — is resumed and completed.
func TestWakeCannotStarveTimer(t *testing.T) {
	owners := &Owners{}
	be := hintedBackend(owners)
	be.admit("run-000001", true)

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

	s := &Scheduler{Name: "orch-a", Leases: owners, Backend: be, Poll: 5 * time.Millisecond, Seed: 1}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	waitFor(t, wakeDeadline, be.done, "the interrupted run to be resumed under a raised hint")
	if got := be.executions()["run-000001"]; len(got) != 1 || got[0] != "orch-a" {
		t.Fatalf("interrupted run executed by %v, want [orch-a]", got)
	}
	waitFor(t, wakeDeadline, func() bool { return s.Counters()["scheduler.ticks"] > 0 }, "a tick under a raised hint")
	if c := s.Counters(); c["scheduler.wakes"] == 0 || c["scheduler.interrupted"] != 1 || c["scheduler.completed"] != 1 {
		t.Fatalf("counters %v; want wakes, one interruption and one completion", c)
	}
}

// TestFailingRunBacksOff: a run whose execution fails with a plain error is
// not retried on the hints that follow — a parked member backs it off for at
// least half a poll period — while the admissions behind it still execute.
func TestFailingRunBacksOff(t *testing.T) {
	owners := &Owners{}
	be := hintedBackend(owners)
	be.failures["run-000001"] = 1 << 30
	s := parkedMember(t, "orch-a", owners, be)
	defer s.Stop()

	be.admit("run-000001", false)
	waitFor(t, wakeDeadline, func() bool { return s.Counters()["scheduler.errors"] == 1 }, "the first failure")
	for i := 2; i <= 4; i++ {
		be.admit(fmt.Sprintf("run-%06d", i), false)
		waitFor(t, wakeDeadline, func() bool { return s.Counters()["scheduler.completed"] == float64(i-1) }, "the admission behind the failing run")
	}
	if c := s.Counters(); c["scheduler.errors"] != 1 || c["scheduler.claims"] != 4 {
		t.Fatalf("errors = %v, claims = %v after three more wakes; want the failing run tried once", c["scheduler.errors"], c["scheduler.claims"])
	}
}

// TestFailingRunRetriedOnTimer: backing off delays a failing run's retries
// without dropping them: once its errors stop, a later tick executes it.
func TestFailingRunRetriedOnTimer(t *testing.T) {
	owners := &Owners{}
	be := newFakeBackend(owners)
	be.failures["run-000001"] = 2
	be.admit("run-000001", false)
	s := &Scheduler{Name: "orch-a", Leases: owners, Backend: be, Poll: 10 * time.Millisecond, Seed: 1}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	waitFor(t, wakeDeadline, be.done, "the failing run to execute")
	waitFor(t, wakeDeadline, func() bool { return s.Counters()["scheduler.completed"] == 1 }, "completed to be counted")
	if n := s.Counters()["scheduler.errors"]; n != 2 {
		t.Fatalf("errors = %v, want the two failures", n)
	}
}
