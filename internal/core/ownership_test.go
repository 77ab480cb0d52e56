package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// orchOpts is the standard fast test options with a named owner.
func orchOpts(who string) RunOptions {
	return RunOptions{Orchestrator: who, SkipLedger: true, Untraced: true}
}

// TestOrchestratedDetectionMatchesLegacy is the zero-regression gate for
// named ownership: a run owned under an orchestrator's name must produce a
// canonical graph byte-identical to an unnamed one, and leave the ownership
// set when it returns.
func TestOrchestratedDetectionMatchesLegacy(t *testing.T) {
	sys, taxa, _ := testSystem(t, 400, 80)
	ctx := context.Background()

	legacy, err := sys.RunDetection(ctx, taxa.Checklist, RunOptions{SkipLedger: true, Untraced: true})
	if err != nil {
		t.Fatal(err)
	}
	lg, err := sys.Provenance.Graph(legacy.RunID)
	if err != nil {
		t.Fatal(err)
	}

	orch, err := sys.RunDetection(ctx, taxa.Checklist, orchOpts("orch-1"))
	if err != nil {
		t.Fatal(err)
	}
	og, err := sys.Provenance.Graph(orch.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(og, orch.RunID) != canonicalGraph(lg, legacy.RunID) {
		t.Error("orchestrated canonical graph diverges from the legacy path")
	}

	if sys.Leases.Held(orch.RunID) || sys.Leases.Held(legacy.RunID) {
		t.Error("a finished run is still in the ownership set")
	}
}

// TestOrchestratorFailoverByteIdentical kills an owned run mid-flight and
// hands it to another owner at once: the crash released the run (no lease to
// age out), and the second owner's resume finishes it under its original ID
// with a canonical graph byte-identical to an uninterrupted run.
func TestOrchestratorFailoverByteIdentical(t *testing.T) {
	sys, taxa, _ := testSystem(t, 400, 80)
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

	opts := orchOpts("orch-1")
	opts.CrashAfterDeltas = int(baseline.ProvenanceWriter.Enqueued) / 2
	_, err = sys.RunDetection(ctx, taxa.Checklist, opts)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("crash run returned %v, want CrashError", err)
	}
	runID := crash.RunID
	if sys.Leases.Held(runID) {
		t.Fatal("crashed run still owned")
	}

	outcome, err := sys.ResumeDetection(ctx, taxa.Checklist, runID, orchOpts("orch-2"))
	if err != nil {
		t.Fatalf("resume by a second owner: %v", err)
	}
	if outcome.RunID != runID {
		t.Fatalf("resume finished run %q, want original %q", outcome.RunID, runID)
	}
	g, err := sys.Provenance.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, runID) != want {
		t.Error("resumed canonical graph diverges from the uninterrupted baseline")
	}
}

// TestTenantFailoverAcrossShardOutage drives a takeover through a shard
// outage: a tenant-affine owned run crashes, its owning shard goes down, the
// second owner's resume fails visibly and fast while the shard is out, and
// after RejoinShard it finishes the run under its original ID with a
// canonical graph byte-identical to an uninterrupted tenant run.
func TestTenantFailoverAcrossShardOutage(t *testing.T) {
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 60, OutdatedFraction: 0.07, ProvisionalFraction: 0.1, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{
		Records: 300, Seed: 5, SyntaxErrorRate: 1e-12,
	}, taxa, geo.SyntheticGazetteer(15, 6), envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(t.TempDir(), Options{Sync: storage.SyncNever, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })

	const tenant = "acme"
	owned := make([]*fnjv.Record, 0, len(col.Records))
	for _, rec := range col.Records {
		r := *rec
		r.ID = tenant + shard.Sep + r.ID
		owned = append(owned, &r)
	}
	if err := sys.Records.PutAll(owned); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	baseline, err := sys.RunDetection(ctx, taxa.Checklist, RunOptions{Tenant: tenant, SkipLedger: true, Untraced: true})
	if err != nil {
		t.Fatal(err)
	}
	bg, err := sys.Provenance.Graph(baseline.RunID)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalGraph(bg, baseline.RunID)

	opts := orchOpts("orch-1")
	opts.Tenant = tenant
	opts.CrashAfterDeltas = int(baseline.ProvenanceWriter.Enqueued) / 2
	_, err = sys.RunDetection(ctx, taxa.Checklist, opts)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("crash run returned %v, want CrashError", err)
	}
	runID := crash.RunID
	if tn, _ := shard.Split(runID); tn != tenant {
		t.Fatalf("crashed run ID %q lost its tenant prefix", runID)
	}

	// The tenant's shard goes down before the second owner looks at the run.
	victim := sys.Cluster.OwnerIndex(tenant + shard.Sep)
	if err := sys.Cluster.StopShard(victim); err != nil {
		t.Fatal(err)
	}
	// Takeover while the shard is out fails visibly (the run's rows are
	// unreadable), and fast: nothing retries an outage.
	t0 := time.Now()
	if _, ferr := sys.ResumeDetection(ctx, taxa.Checklist, runID, orchOpts("orch-2")); !errors.Is(ferr, ErrNotResumable) {
		t.Fatalf("resume during outage = %v, want ErrNotResumable", ferr)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("resume during outage took %v, want fail-fast", d)
	}

	// Nor may the run-ID counter be seeded from the surviving shards alone:
	// it could land below IDs the lost shard holds.
	if serr := sys.seedRunCounter(); !errors.Is(serr, shard.ErrShardDown) {
		t.Fatalf("seeding the run-ID counter during outage = %v, want ErrShardDown", serr)
	}

	// Rejoin (WAL replay) and take over for real.
	if err := sys.Cluster.RejoinShard(victim); err != nil {
		t.Fatal(err)
	}
	outcome, err := sys.ResumeDetection(ctx, taxa.Checklist, runID, orchOpts("orch-2"))
	if err != nil {
		t.Fatalf("resume after rejoin: %v", err)
	}
	if outcome.RunID != runID {
		t.Fatalf("resume finished run %q, want original %q", outcome.RunID, runID)
	}
	g, err := sys.Provenance.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, runID) != want {
		t.Error("post-outage resumed graph diverges from the uninterrupted tenant baseline")
	}
}

// TestOrchestratorFailoverAcrossReopenEveryCut: an owned run killed after ANY
// number of persisted deltas, with the database closed and reopened before
// the next owner looks at it — so nothing but the persisted history survives
// the "process" — is resumed at once by the next owner under its original ID
// with a canonical graph byte-identical to an uninterrupted run's. The names go one per call, so
// cuts land between them, and leased to the checklist's batch form, whose
// lease is one history event; each arm's cuts range over its own run's
// deltas.
func TestOrchestratorFailoverAcrossReopenEveryCut(t *testing.T) {
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
	ctx := context.Background()

	for _, arm := range []struct {
		resolver taxonomy.Resolver
		vacuous  int
	}{{singleOnlyResolver{taxa.Checklist}, 20}, {taxa.Checklist, 5}} {
		baseline, err := sys.RunDetection(ctx, arm.resolver, RunOptions{SkipLedger: true, Untraced: true})
		if err != nil {
			t.Fatal(err)
		}
		bg, err := sys.Provenance.Graph(baseline.RunID)
		if err != nil {
			t.Fatal(err)
		}
		want := canonicalGraph(bg, baseline.RunID)
		total := int(baseline.ProvenanceWriter.Enqueued)
		if total < arm.vacuous {
			t.Fatalf("baseline persisted only %d deltas; test is vacuous", total)
		}

		for cut := 1; cut < total; cut++ {
			opts := orchOpts("orch-1")
			opts.Parallel = 4
			opts.CrashAfterDeltas = cut
			_, err := sys.RunDetection(ctx, arm.resolver, opts)
			var crash *CrashError
			if !errors.As(err, &crash) {
				t.Fatalf("cut %d: crash run returned %v, want CrashError", cut, err)
			}
			if err := sys.Close(); err != nil {
				t.Fatalf("cut %d: close: %v", cut, err)
			}
			sys = open()
			standby := orchOpts("orch-2")
			standby.Parallel = 4
			outcome, err := sys.ResumeDetection(ctx, arm.resolver, crash.RunID, standby)
			if err != nil {
				t.Fatalf("cut %d: resume after reopen: %v", cut, err)
			}
			if outcome.RunID != crash.RunID {
				t.Fatalf("cut %d: resume finished run %q, want original %q", cut, outcome.RunID, crash.RunID)
			}
			g, err := sys.Provenance.Graph(crash.RunID)
			if err != nil {
				t.Fatal(err)
			}
			if canonicalGraph(g, crash.RunID) != want {
				t.Fatalf("cut %d: resumed graph diverges from the uninterrupted baseline", cut)
			}
		}
	}
}

// TestOrchestratedRunLeavesNoQueueState pins that history is an owned run's
// only durable record: after a clean owned run and a crashed one finished by
// a second owner, the meta database (the only one when unsharded) holds
// exactly the tables it held before — no per-run table of any name, and no
// ownership table at all.
func TestOrchestratedRunLeavesNoQueueState(t *testing.T) {
	for _, shards := range []int{0, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys, err := Open(t.TempDir(), Options{Sync: storage.SyncNever, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			taxa := smallCollection(t, sys)
			ctx := context.Background()
			tables := func() []string {
				names := sys.DB.Tables()
				sort.Strings(names)
				return names
			}

			before := tables()
			for _, name := range before {
				if name == "cluster_leases" || name == "sys_fences" {
					t.Fatalf("a new store holds the ownership table %s", name)
				}
			}

			if _, err := sys.RunDetection(ctx, taxa.Checklist, orchOpts("orch-1")); err != nil {
				t.Fatal(err)
			}
			opts := orchOpts("orch-1")
			opts.CrashAfterDeltas = 8
			_, err = sys.RunDetection(ctx, taxa.Checklist, opts)
			var crash *CrashError
			if !errors.As(err, &crash) {
				t.Fatalf("crash run returned %v, want CrashError", err)
			}
			if _, err := sys.ResumeDetection(ctx, taxa.Checklist, crash.RunID, orchOpts("orch-2")); err != nil {
				t.Fatalf("resume: %v", err)
			}

			if after := tables(); !reflect.DeepEqual(after, before) {
				t.Fatalf("owned runs changed the table set:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// gatedResolver parks every Resolve call until release closes (or the call's
// context is cancelled), announcing the first arrival on entered.
type gatedResolver struct {
	taxonomy.Resolver
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedResolver) Resolve(ctx context.Context, name string) (taxonomy.Resolution, error) {
	g.once.Do(func() { close(g.entered) })
	select {
	case <-g.release:
	case <-ctx.Done():
		return taxonomy.Resolution{}, ctx.Err()
	}
	return g.Resolver.Resolve(ctx, name)
}

// TestRunOwnedWhileExecuting: while a run executes, its ID is in the
// ownership set, and a second executor of it — a resume, an admission drain,
// a sweep — loses the claim with cluster.ErrRunOwned before reading any of
// its state. The first execution is untouched and finishes byte-identically.
func TestRunOwnedWhileExecuting(t *testing.T) {
	sys, taxa, _ := testSystem(t, 60, 12)
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

	adm, err := sys.AdmitDetection(RunOptions{SkipLedger: true, Untraced: true})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedResolver{Resolver: taxa.Checklist, entered: make(chan struct{}), release: make(chan struct{})}
	first := make(chan error, 1)
	go func() {
		_, err := sys.RunAdmitted(ctx, gate, adm, "orch-1")
		first <- err
	}()
	select {
	case <-gate.entered:
	case err := <-first:
		t.Fatalf("run returned before reaching the authority: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("run never reached the authority")
	}

	if !sys.Leases.Held(adm.RunID) {
		t.Fatal("executing run is not in the ownership set")
	}
	if _, err := sys.ResumeDetection(ctx, taxa.Checklist, adm.RunID, orchOpts("orch-2")); !errors.Is(err, cluster.ErrRunOwned) {
		t.Fatalf("resume of an executing run = %v, want ErrRunOwned", err)
	}
	if _, err := sys.RunAdmitted(ctx, taxa.Checklist, adm, "orch-2"); !errors.Is(err, cluster.ErrRunOwned) {
		t.Fatalf("second execution of an executing admission = %v, want ErrRunOwned", err)
	}

	close(gate.release)
	if err := <-first; err != nil {
		t.Fatalf("first execution: %v", err)
	}
	if sys.Leases.Held(adm.RunID) {
		t.Fatal("finished run still owned")
	}
	g, err := sys.Provenance.Graph(adm.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, adm.RunID) != want {
		t.Error("contested run's canonical graph diverges from the uninterrupted baseline")
	}
}
