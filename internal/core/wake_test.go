package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/provenance"
	"repro/internal/storage"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// parkedMember starts a pool member whose poll timer cannot fire within a
// test: whatever it executes, the admission hint woke it for.
func parkedMember(t *testing.T, sys *System, be cluster.SchedulerBackend) *cluster.Scheduler {
	t.Helper()
	s := &cluster.Scheduler{Name: "orch-wake", Leases: sys.Leases, Backend: be, Poll: time.Hour}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func runCompleted(sys *System, runID string) func() bool {
	return func() bool {
		info, err := sys.Provenance.Run(runID)
		return err == nil && info.Status == provenance.RunCompleted && sys.Admissions.Depth() == 0
	}
}

// TestAdmissionWakesPool is the tentpole end to end over the real stack: the
// admission row's commit wakes a member that would otherwise sleep for an
// hour, and the run it executes is the run a synchronous detection produces.
// The restart half: a row admitted with no pool and carried across Close/Open
// drains the moment a member starts — a reopened queue comes up with its hint
// raised.
func TestAdmissionWakesPool(t *testing.T) {
	opts := RunOptions{SkipLedger: true, Untraced: true}
	ctx := context.Background()

	t.Run("push", func(t *testing.T) {
		sys, taxa, _ := testSystem(t, 300, 60)
		sync_, err := sys.RunDetection(ctx, taxa.Checklist, opts)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := sys.Provenance.Graph(sync_.RunID)
		if err != nil {
			t.Fatal(err)
		}

		s := parkedMember(t, sys, sys.SchedulerBackend(taxa.Checklist, opts, nil))
		adm, err := sys.AdmitDetection(opts)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, runCompleted(sys, adm.RunID), "the admitted run to complete on the wake")
		g, err := sys.Provenance.Graph(adm.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if canonicalGraph(g, adm.RunID) != canonicalGraph(sg, sync_.RunID) {
			t.Error("woken run's canonical graph diverges from the synchronous path")
		}
		if c := s.Counters(); c["scheduler.ticks"] != 0 || c["scheduler.wakes"] < 1 {
			t.Errorf("ticks = %v, wakes = %v; want the run to have come from a wake", c["scheduler.ticks"], c["scheduler.wakes"])
		}
	})

	t.Run("restart", func(t *testing.T) {
		dir := t.TempDir()
		open := func() *System {
			sys, err := Open(dir, Options{Sync: storage.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		sys := open()
		defer func() { sys.Close() }()
		taxa := smallCollection(t, sys)
		adm, err := sys.AdmitDetection(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		sys = open()
		if _, ok := sys.Admissions.Get(adm.RunID); !ok {
			t.Fatal("admission row did not survive the restart")
		}

		s := parkedMember(t, sys, sys.SchedulerBackend(taxa.Checklist, opts, nil))
		waitFor(t, 10*time.Second, runCompleted(sys, adm.RunID), "the surviving admission to drain without a poll")
		s.Stop() // before the deferred Close
	})
}

// TestPoolCompletedMatchesOutcomes is the regression for the stale pending
// list: three members over one backend walk overlapping snapshots of the
// queue, and by the time one reaches a later entry a peer may have finished
// it. That must never be counted — or announced — as a completion: across the
// pool, completed equals the outcome callbacks equals the admissions.
func TestPoolCompletedMatchesOutcomes(t *testing.T) {
	sys, taxa, _ := testSystem(t, 120, 24)
	opts := RunOptions{SkipLedger: true, Untraced: true}
	const runs = 40

	var outcomes, completeEvents atomic.Int64
	be := sys.SchedulerBackend(taxa.Checklist, opts, func(*DetectionOutcome) { outcomes.Add(1) })
	var pool []*cluster.Scheduler
	for i := 0; i < 3; i++ {
		s := &cluster.Scheduler{
			Name: fmt.Sprintf("orch-%d", i), Leases: sys.Leases, Backend: be,
			Poll: 10 * time.Millisecond, Seed: int64(i),
			OnEvent: func(ev cluster.SchedulerEvent) {
				if ev.Kind == "complete" {
					completeEvents.Add(1)
				}
			},
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		pool = append(pool, s)
	}

	for i := 0; i < runs; i++ {
		if _, err := sys.AdmitDetection(opts); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, 60*time.Second, func() bool {
		return sys.Admissions.Depth() == 0 && outcomes.Load() >= runs
	}, "the pool to drain every admission")
	for _, s := range pool {
		s.Stop() // counters are final once the loops have exited
	}

	var completed, settled float64
	for _, s := range pool {
		c := s.Counters()
		completed += c["scheduler.completed"]
		settled += c["scheduler.settled"]
	}
	if got := outcomes.Load(); got != runs {
		t.Errorf("outcome callbacks = %d, want %d", got, runs)
	}
	if completed != runs || completeEvents.Load() != runs {
		t.Errorf("pool counted %v completed and emitted %d complete events over %d runs (%v settled)",
			completed, completeEvents.Load(), runs, settled)
	}
}

// TestInterruptedAdmissionResumesOnNextDrain: an admitted run that crashes
// under a pool member is resumed by the very next drain — there is no lease
// to wait out — and finishes byte-identically. The drains are counted from
// the member's own events (OnEvent runs on its control loop), not timed.
func TestInterruptedAdmissionResumesOnNextDrain(t *testing.T) {
	sys, taxa, _ := testSystem(t, 300, 60)
	ctx := context.Background()
	opts := RunOptions{SkipLedger: true, Untraced: true}
	baseline, err := sys.RunDetection(ctx, taxa.Checklist, opts)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := sys.Provenance.Graph(baseline.RunID)
	if err != nil {
		t.Fatal(err)
	}

	var (
		s      *cluster.Scheduler
		mu     sync.Mutex
		events []string
		drains []float64 // ticks + wakes when each event fired
	)
	s = &cluster.Scheduler{
		Name: "orch-1", Leases: sys.Leases, Backend: sys.SchedulerBackend(taxa.Checklist, opts, nil),
		Poll: 10 * time.Millisecond,
		OnEvent: func(ev cluster.SchedulerEvent) {
			c := s.Counters()
			mu.Lock()
			events = append(events, ev.Kind)
			drains = append(drains, c["scheduler.ticks"]+c["scheduler.wakes"])
			mu.Unlock()
		},
	}
	crashing := opts
	crashing.CrashAfterDeltas = int(baseline.ProvenanceWriter.Enqueued) / 2
	adm, err := sys.AdmitDetection(crashing)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	waitFor(t, 10*time.Second, runCompleted(sys, adm.RunID), "the interrupted admission to complete")
	s.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0] != "interrupted" || events[1] != "complete" {
		t.Fatalf("events = %v, want [interrupted complete]", events)
	}
	if drains[1] != drains[0]+1 {
		t.Fatalf("interrupted at drain %v, completed at drain %v; want the next drain", drains[0], drains[1])
	}
	g, err := sys.Provenance.Graph(adm.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, adm.RunID) != canonicalGraph(bg, baseline.RunID) {
		t.Error("resumed run's canonical graph diverges from the uninterrupted baseline")
	}
}
