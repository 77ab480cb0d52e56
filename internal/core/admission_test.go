package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/provenance"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// TestAdmittedRunLifecycle drives the full async path end to end on one
// system: admit → durable queue row → scheduler claims → run executes under
// the pre-minted ID → admission settled — with a canonical graph identical to
// a synchronous run's.
func TestAdmittedRunLifecycle(t *testing.T) {
	sys, taxa, _ := testSystem(t, 300, 60)
	ctx := context.Background()

	sync_, err := sys.RunDetection(ctx, taxa.Checklist, RunOptions{SkipLedger: true, Untraced: true})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := sys.Provenance.Graph(sync_.RunID)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalGraph(sg, sync_.RunID)

	adm, err := sys.AdmitDetection(RunOptions{SkipLedger: true, Untraced: true})
	if err != nil {
		t.Fatal(err)
	}
	if adm.RunID == "" {
		t.Fatal("admission minted no run ID")
	}
	if _, err := sys.Provenance.Run(adm.RunID); err == nil {
		t.Fatal("admitted run has a run row before any scheduler executed it")
	}
	if n := sys.Admissions.Depth(); n != 1 {
		t.Fatalf("queue depth = %d, want 1", n)
	}

	var mu sync.Mutex
	var outcomes []*DetectionOutcome
	be := sys.SchedulerBackend(taxa.Checklist, RunOptions{SkipLedger: true, Untraced: true}, func(o *DetectionOutcome) {
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
	})
	pending, err := be.PendingAdmissions()
	if err != nil || len(pending) != 1 || pending[0].RunID != adm.RunID {
		t.Fatalf("PendingAdmissions = %v, %v; want the one admission", pending, err)
	}
	if err := be.ExecuteAdmission(ctx, pending[0], "orch-1"); err != nil {
		t.Fatalf("ExecuteAdmission: %v", err)
	}

	// The run finished under its admitted identity, the queue row is gone,
	// the outcome reached the observer, and the graph matches sync.
	if info, err := sys.Provenance.Run(adm.RunID); err != nil || info.Status != provenance.RunCompleted {
		t.Fatalf("run %s after execution: %+v, %v", adm.RunID, info, err)
	}
	if n := sys.Admissions.Depth(); n != 0 {
		t.Fatalf("queue depth after execution = %d, want 0", n)
	}
	mu.Lock()
	no := len(outcomes)
	mu.Unlock()
	if no != 1 || outcomes[0].RunID != adm.RunID {
		t.Fatalf("observer saw %d outcomes (%v), want the admitted run", no, outcomes)
	}
	g, err := sys.Provenance.Graph(adm.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, adm.RunID) != want {
		t.Error("admitted run canonical graph diverges from the synchronous path")
	}

	// The run left the ownership set when its execution returned.
	if sys.Leases.Held(adm.RunID) {
		t.Error("run still owned after its execution returned")
	}

	// Re-executing a settled admission — a peer working through a pending
	// list that went stale — is reported as settled and executes nothing.
	if err := be.ExecuteAdmission(ctx, pending[0], "orch-2"); !errors.Is(err, cluster.ErrAdmissionSettled) {
		t.Errorf("re-execute settled admission: %v, want ErrAdmissionSettled", err)
	}
	mu.Lock()
	no = len(outcomes)
	mu.Unlock()
	if no != 1 {
		t.Errorf("observer saw %d outcomes after re-execution, want still 1", no)
	}
}

// TestAdmittedRunInterruptedAndRescued crashes an admitted run mid-flight
// (chaos knob round-tripped through the queue), confirms the scheduler
// contract error, then executes the admission again under a different
// orchestrator at once — no lease to wait out: the run is resumed under the
// same run ID with a graph identical to an uninterrupted run's.
func TestAdmittedRunInterruptedAndRescued(t *testing.T) {
	sys, taxa, _ := testSystem(t, 300, 60)
	ctx := context.Background()

	baseline, err := sys.RunDetection(ctx, taxa.Checklist, RunOptions{SkipLedger: true, Untraced: true})
	if err != nil {
		t.Fatal(err)
	}
	bg, err := sys.Provenance.Graph(baseline.RunID)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalGraph(bg, baseline.RunID)

	// The crash lands halfway through the run's deltas.
	adm, err := sys.AdmitDetection(RunOptions{
		SkipLedger: true, Untraced: true, CrashAfterDeltas: int(baseline.ProvenanceWriter.Enqueued) / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	be := sys.SchedulerBackend(taxa.Checklist, RunOptions{SkipLedger: true, Untraced: true}, nil)

	err = be.ExecuteAdmission(ctx, adm, "orch-1")
	if !errors.Is(err, cluster.ErrRunInterrupted) {
		t.Fatalf("crashed execution returned %v, want ErrRunInterrupted", err)
	}
	// Interrupted ≠ settled: the admission row must survive as the durable
	// record of the unfinished obligation, the run is still marked running,
	// and nobody owns it any more.
	if _, ok := sys.Admissions.Get(adm.RunID); !ok {
		t.Fatal("admission row dropped for an interrupted run")
	}
	if info, err := sys.Provenance.Run(adm.RunID); err != nil || info.Status != provenance.RunRunning {
		t.Fatalf("interrupted run = %+v, %v; want running", info, err)
	}
	if sys.Leases.Held(adm.RunID) {
		t.Fatal("crashed run still owned")
	}

	if err := be.ExecuteAdmission(ctx, adm, "orch-2"); err != nil {
		t.Fatalf("re-executing the interrupted admission: %v", err)
	}
	if info, err := sys.Provenance.Run(adm.RunID); err != nil || info.Status != provenance.RunCompleted {
		t.Fatalf("rescued run = %+v, %v; want finished", info, err)
	}
	if _, ok := sys.Admissions.Get(adm.RunID); ok {
		t.Fatal("admission row survived a completed rescue")
	}
	g, err := sys.Provenance.Graph(adm.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, adm.RunID) != want {
		t.Error("rescued run canonical graph diverges from the uninterrupted baseline")
	}
}

// TestSweepSchedulerClaimRace is the -race regression for the race between
// the startup sweep and a scheduler member: both see the same interrupted
// admitted run and go for it concurrently. Claim-before-read means exactly
// one side replays it; the loser reports the run as skipped, owned or already
// settled — never abandoned, which would finalize a run the winner is
// actively completing or has just completed. Either side may come second
// after the other has released the run, so both orders are legal.
func TestSweepSchedulerClaimRace(t *testing.T) {
	sys, taxa, _ := testSystem(t, 300, 60)
	ctx := context.Background()

	// The crash lands halfway through an uninterrupted run's deltas.
	baseline, err := sys.RunDetection(ctx, taxa.Checklist, RunOptions{SkipLedger: true, Untraced: true})
	if err != nil {
		t.Fatal(err)
	}
	adm, err := sys.AdmitDetection(RunOptions{
		SkipLedger: true, Untraced: true, CrashAfterDeltas: int(baseline.ProvenanceWriter.Enqueued) / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	be := sys.SchedulerBackend(taxa.Checklist, RunOptions{SkipLedger: true, Untraced: true}, nil)
	if err := be.ExecuteAdmission(ctx, adm, "orch-dead"); !errors.Is(err, cluster.ErrRunInterrupted) {
		t.Fatalf("crashed execution returned %v, want ErrRunInterrupted", err)
	}

	var (
		wg        sync.WaitGroup
		report    *SweepReport
		sweepErr  error
		rescueErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		report, sweepErr = sys.SweepUnfinishedRuns(ctx, taxa.Checklist, RunOptions{Orchestrator: "orch-sweep", SkipLedger: true, Untraced: true})
	}()
	go func() {
		defer wg.Done()
		rescueErr = be.ExecuteAdmission(ctx, adm, "orch-rescue")
	}()
	wg.Wait()

	if sweepErr != nil {
		t.Fatalf("sweep: %v", sweepErr)
	}
	// The member either won the run or lost the claim cleanly: to the sweep
	// executing it, or to a sweep that had already finished it.
	if rescueErr != nil && !errors.Is(rescueErr, cluster.ErrRunOwned) && !errors.Is(rescueErr, cluster.ErrAdmissionSettled) {
		t.Fatalf("rescue: %v", rescueErr)
	}
	// Exactly one side executed the run.
	if rescued, swept := rescueErr == nil, slices.Contains(report.Resumed, adm.RunID); rescued == swept {
		t.Fatalf("rescue executed: %v, sweep resumed: %v (report %+v); want exactly one", rescued, swept, report)
	}
	// Whoever lost, the run itself must have been completed by the winner —
	// never abandoned by the loser.
	if reason, abandoned := report.Abandoned[adm.RunID]; abandoned {
		t.Fatalf("sweep abandoned the contested run: %s", reason)
	}
	if info, err := sys.Provenance.Run(adm.RunID); err != nil || info.Status != provenance.RunCompleted {
		t.Fatalf("contested run = %+v, %v; want finished exactly once", info, err)
	}
}

// TestReopenSeedsRunCounter pins the restart half of run-ID minting: the mint
// counter lives in process memory, so Open must raise it past every ID the
// store already holds — stored runs and pending admissions, tenant qualifier
// stripped — or a restarted process re-mints an ID that exists. The "earlier
// process" here is a run stored five ordinals ahead of the counter and a
// tenant admission six ahead; without the seeding the fifth fresh run collides
// with the stored one.
func TestReopenSeedsRunCounter(t *testing.T) {
	for _, shards := range []int{0, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			open := func() *System {
				sys, err := Open(dir, Options{Sync: storage.SyncNever, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			sys := open()
			defer func() { sys.Close() }()
			taxa := smallCollection(t, sys)
			ctx := context.Background()
			opts := RunOptions{SkipLedger: true, Untraced: true}

			var counter int
			if _, err := fmt.Sscanf(workflow.MintRunID(""), "run-%d", &counter); err != nil {
				t.Fatal(err)
			}
			stored := workflow.Admission{RunID: fmt.Sprintf("run-%06d", counter+5), Options: encodeRunOptions(opts)}
			if err := sys.Admissions.Add(stored); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunAdmitted(ctx, taxa.Checklist, stored, ""); err != nil {
				t.Fatalf("storing the earlier process's run: %v", err)
			}
			if err := sys.Admissions.Remove(stored.RunID); err != nil {
				t.Fatal(err)
			}
			pending := workflow.Admission{RunID: fmt.Sprintf("acme:run-%06d", counter+6), Tenant: "acme", Options: encodeRunOptions(opts)}
			if err := sys.Admissions.Add(pending); err != nil {
				t.Fatal(err)
			}

			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			sys = open()

			seen := map[string]bool{stored.RunID: true, "run-" + pending.RunID[len("acme:run-"):]: true}
			for i := 0; i < 6; i++ {
				out, err := sys.RunDetection(ctx, taxa.Checklist, opts)
				if err != nil {
					t.Fatalf("fresh run %d after reopen: %v", i+1, err)
				}
				if seen[out.RunID] {
					t.Fatalf("fresh run %d re-minted existing ID %s", i+1, out.RunID)
				}
				seen[out.RunID] = true
			}
			adm, err := sys.AdmitDetection(RunOptions{Tenant: "acme", SkipLedger: true, Untraced: true})
			if err != nil {
				t.Fatal(err)
			}
			if adm.RunID == pending.RunID {
				t.Fatalf("admission re-minted the pending ID %s", adm.RunID)
			}
		})
	}
}
