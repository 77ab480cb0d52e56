package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// orchOpts is the orchestrated variant of the standard fast test options.
func orchOpts(who string, ttl time.Duration) RunOptions {
	return RunOptions{Orchestrator: who, LeaseTTL: ttl, SkipLedger: true, Untraced: true}
}

// TestOrchestratedDetectionMatchesLegacy is the zero-regression gate for the
// fenced path: an orchestrated run (lease + fenced history) must produce a
// canonical graph byte-identical to the unowned path, release its lease on
// completion, and leave the run fence at the first token.
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

	orch, err := sys.RunDetection(ctx, taxa.Checklist, orchOpts("orch-1", 500*time.Millisecond))
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

	// finish() released the lease: it still exists (token history) but is no
	// longer live, so any standby could acquire immediately.
	if l, ok := sys.Leases.Get(orch.RunID); !ok {
		t.Error("lease row missing after finish")
	} else if l.Live(time.Now()) {
		t.Errorf("lease still live after finish: %+v", l)
	}
	if tok := sys.Provenance.RunFenceToken(orch.RunID); tok != 1 {
		t.Errorf("run fence token = %d, want 1 (single uncontended claim)", tok)
	}
}

// TestOrchestratorFailoverByteIdentical kills an orchestrated run mid-flight
// and drives the full takeover protocol: while the dead holder's lease is
// live a standby bounces off ErrLeaseHeld; after expiry the standby steals
// (token bump), replays, and finishes the run under its original ID with a
// canonical graph byte-identical to an uninterrupted run. The resurrected
// first orchestrator — still holding token 1 — gets every history append
// rejected with storage.ErrStaleFence.
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

	// Orchestrated run killed halfway through its provenance deltas; the
	// lease stays held (the dead process can't release it) until it ages out.
	opts := orchOpts("orch-1", time.Second)
	opts.CrashAfterDeltas = int(baseline.ProvenanceWriter.Enqueued) / 2
	_, err = sys.RunDetection(ctx, taxa.Checklist, opts)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("crash run returned %v, want CrashError", err)
	}
	runID := crash.RunID

	l, ok := sys.Leases.Get(runID)
	if !ok || l.Holder != "orch-1" || l.Token != 1 {
		t.Fatalf("post-crash lease = %+v ok=%v, want token 1 held by orch-1", l, ok)
	}
	if l.Live(time.Now()) {
		// While the dead holder's lease lives, a standby cannot take over.
		if _, rerr := sys.ResumeDetection(ctx, taxa.Checklist, runID, orchOpts("orch-2", time.Second)); !errors.Is(rerr, cluster.ErrLeaseHeld) {
			t.Fatalf("resume under live foreign lease: %v, want ErrLeaseHeld", rerr)
		}
	}

	// The resurrected orchestrator's writer, opened at its old token while
	// the run is still marked running — exactly what a stale process would
	// hold after a network partition heals.
	staleWriter, err := sys.Provenance.ResumeRunWriter(runID, provenance.BatchWriterOptions{
		FenceName:  provenance.RunFenceName(runID),
		FenceToken: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Force the expiry instead of sleeping the TTL out, then fail over.
	if err := sys.Leases.Expire(runID); err != nil {
		t.Fatal(err)
	}
	outcome, err := sys.FailoverDetection(ctx, taxa.Checklist, runID, 5*time.Second, orchOpts("orch-2", time.Second))
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if outcome.RunID != runID {
		t.Fatalf("failover finished run %q, want original %q", outcome.RunID, runID)
	}
	if tok := sys.Provenance.RunFenceToken(runID); tok != 2 {
		t.Errorf("run fence token after steal = %d, want 2", tok)
	}

	g, err := sys.Provenance.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, runID) != want {
		t.Error("failed-over canonical graph diverges from the uninterrupted baseline")
	}
	nodes, edges := len(g.Nodes()), len(g.Edges())

	// The stale orchestrator wakes up and tries to end the run with a graph
	// of its own: the commit carries token 1 against a fence at 2 and must
	// bounce.
	stale := opm.NewGraph()
	if err := stale.Artifact("stale-node", "stale", ""); err != nil {
		t.Fatal(err)
	}
	if err := staleWriter.Emit(provenance.Delta{Kind: provenance.DeltaRunFinished,
		Info: provenance.RunInfo{RunID: runID, Status: provenance.RunFailed}, Graph: stale}); err != nil {
		t.Fatalf("stale emit failed before flush: %v", err)
	}
	if err := staleWriter.Close(); !errors.Is(err, storage.ErrStaleFence) {
		t.Fatalf("stale writer Close = %v, want ErrStaleFence", err)
	}

	// Zero accepted writes: the graph is exactly what the failover left.
	g2, err := sys.Provenance.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Nodes()) != nodes || len(g2.Edges()) != edges {
		t.Errorf("stale writer mutated the graph: %d/%d nodes, %d/%d edges",
			len(g2.Nodes()), nodes, len(g2.Edges()), edges)
	}
	for _, n := range g2.Nodes() {
		if n.ID == "stale-node" {
			t.Error("stale node committed past the fence")
		}
	}
}

// TestTenantFailoverAcrossShardOutage drives failover through a shard
// outage: a tenant-affine orchestrated run crashes, its owning shard goes
// down, the standby's takeover fails visibly while the shard is out, and
// after RejoinShard the standby finishes the run under its original ID with
// a canonical graph byte-identical to an uninterrupted tenant run.
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

	opts := orchOpts("orch-1", time.Second)
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
	if err := sys.Leases.Expire(runID); err != nil {
		t.Fatal(err)
	}

	// The tenant's shard goes down before the standby notices the death.
	victim := sys.Cluster.OwnerIndex(tenant + shard.Sep)
	if err := sys.Cluster.StopShard(victim); err != nil {
		t.Fatal(err)
	}
	// Takeover while the shard is out fails visibly (the run's rows are
	// unreadable), and fast — FailoverDetection only retries lease
	// contention, never an outage.
	t0 := time.Now()
	if _, ferr := sys.FailoverDetection(ctx, taxa.Checklist, runID, time.Second, orchOpts("orch-2", time.Second)); !errors.Is(ferr, ErrNotResumable) {
		t.Fatalf("failover during outage = %v, want ErrNotResumable", ferr)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("failover during outage took %v, want fail-fast", d)
	}

	// Nor may the run-ID counter be seeded from the surviving shards alone:
	// it could land below IDs the lost shard holds.
	if serr := sys.seedRunCounter(); !errors.Is(serr, shard.ErrShardDown) {
		t.Fatalf("seeding the run-ID counter during outage = %v, want ErrShardDown", serr)
	}

	// Rejoin (WAL replay) and fail over for real.
	if err := sys.Cluster.RejoinShard(victim); err != nil {
		t.Fatal(err)
	}
	outcome, err := sys.FailoverDetection(ctx, taxa.Checklist, runID, 5*time.Second, orchOpts("orch-2", time.Second))
	if err != nil {
		t.Fatalf("failover after rejoin: %v", err)
	}
	if outcome.RunID != runID {
		t.Fatalf("failover finished run %q, want original %q", outcome.RunID, runID)
	}
	g, err := sys.Provenance.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, runID) != want {
		t.Error("post-outage failover graph diverges from the uninterrupted tenant baseline")
	}
}

// TestOrchestratorFailoverAcrossReopenEveryCut is what the deleted durable
// queue's reopen-recovery test stood for, asserted where it matters: an
// orchestrated run killed after ANY number of persisted deltas, with the
// database closed and reopened before the standby looks at it — so nothing but
// the persisted history survives the "process" — is finished by
// FailoverDetection under its original ID with a canonical graph
// byte-identical to an uninterrupted run's. The names go one per call, so
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
			opts := orchOpts("orch-1", time.Second)
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
			if err := sys.Leases.Expire(crash.RunID); err != nil {
				t.Fatal(err)
			}
			standby := orchOpts("orch-2", time.Second)
			standby.Parallel = 4
			outcome, err := sys.FailoverDetection(ctx, arm.resolver, crash.RunID, 5*time.Second, standby)
			if err != nil {
				t.Fatalf("cut %d: failover after reopen: %v", cut, err)
			}
			if outcome.RunID != crash.RunID {
				t.Fatalf("cut %d: failover finished run %q, want original %q", cut, outcome.RunID, crash.RunID)
			}
			g, err := sys.Provenance.Graph(crash.RunID)
			if err != nil {
				t.Fatal(err)
			}
			if canonicalGraph(g, crash.RunID) != want {
				t.Fatalf("cut %d: failed-over graph diverges from the uninterrupted baseline", cut)
			}
		}
	}
}

// TestOrchestratedRunLeavesNoQueueState pins that history is an orchestrated
// run's only durable record: after a clean orchestrated run and a crashed one
// finished by failover, the lease database (the meta database when sharded)
// holds exactly the tables it held before — no per-run table of any name.
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

			// The first claim creates the storage layer's own fence table
			// lazily; take the "before" picture after it exists.
			if _, err := sys.RunDetection(ctx, taxa.Checklist, orchOpts("orch-1", time.Second)); err != nil {
				t.Fatal(err)
			}
			before := tables()

			if _, err := sys.RunDetection(ctx, taxa.Checklist, orchOpts("orch-1", time.Second)); err != nil {
				t.Fatal(err)
			}
			opts := orchOpts("orch-1", time.Second)
			opts.CrashAfterDeltas = 8
			_, err = sys.RunDetection(ctx, taxa.Checklist, opts)
			var crash *CrashError
			if !errors.As(err, &crash) {
				t.Fatalf("crash run returned %v, want CrashError", err)
			}
			if err := sys.Leases.Expire(crash.RunID); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.FailoverDetection(ctx, taxa.Checklist, crash.RunID, 5*time.Second, orchOpts("orch-2", time.Second)); err != nil {
				t.Fatalf("failover: %v", err)
			}

			if after := tables(); !reflect.DeepEqual(after, before) {
				t.Fatalf("orchestrated runs changed the table set:\nbefore %v\nafter  %v", before, after)
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

// engineGoroutines counts live goroutines running engine or heartbeat code.
func engineGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "workflow.(*eventRun)") || strings.Contains(g, "core.(*orchestration)") {
			n++
		}
	}
	return n
}

// TestStolenLeaseRunReturns is the regression test for the stolen-orchestrator
// wedge: an orchestrated run whose lease is stolen while its workers sit in
// the authority must RETURN — with an ownership error, within a few TTLs,
// leaving no engine goroutine behind — rather than wait forever for a task
// that was never dispatched. The thief then finishes the run byte-identically.
func TestStolenLeaseRunReturns(t *testing.T) {
	sys, taxa, _ := testSystem(t, 60, 12)
	ctx := context.Background()
	const ttl = time.Second

	baseline, err := sys.RunDetection(ctx, taxa.Checklist, RunOptions{SkipLedger: true, Untraced: true})
	if err != nil {
		t.Fatal(err)
	}
	bg, err := sys.Provenance.Graph(baseline.RunID)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalGraph(bg, baseline.RunID)
	idle := engineGoroutines()

	gate := &gatedResolver{Resolver: taxa.Checklist, entered: make(chan struct{}), release: make(chan struct{})}
	staleDone := make(chan error, 1)
	go func() {
		_, err := sys.RunDetection(ctx, gate, orchOpts("orch-1", ttl))
		staleDone <- err
	}()
	select {
	case <-gate.entered:
	case err := <-staleDone:
		t.Fatalf("run returned before reaching the authority: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("run never reached the authority")
	}

	// The run is the one lease orch-1 holds live; wait until its run row is
	// durable, so the thief has a prefix to resume.
	var runID string
	for _, l := range sys.Leases.List() {
		if l.Holder == "orch-1" && l.Live(time.Now()) {
			runID = l.Resource
		}
	}
	if runID == "" {
		t.Fatal("no live lease held by orch-1")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := sys.Provenance.Run(runID); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never persisted its run row", runID)
		}
	}

	// The steal: expire the holder's lease and claim the run as the thief
	// (lease token and history fence both move to 2), then let the stale
	// orchestrator's workers come back from the authority.
	if err := sys.Leases.Expire(runID); err != nil {
		t.Fatal(err)
	}
	thief, err := sys.claimRun(runID, orchOpts("thief", ttl))
	if err != nil {
		t.Fatalf("thief's claim: %v", err)
	}
	close(gate.release)

	select {
	case err := <-staleDone:
		if !errors.Is(err, storage.ErrStaleFence) && !errors.Is(err, cluster.ErrLeaseLost) {
			t.Fatalf("stale run returned %v, want an ownership error (ErrStaleFence or ErrLeaseLost)", err)
		}
	case <-time.After(5 * ttl):
		t.Fatal("stale orchestrator never returned after its lease was stolen")
	}
	for deadline := time.Now().Add(2 * time.Second); engineGoroutines() > idle; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d engine goroutines leaked by the stale run", engineGoroutines()-idle)
		}
	}

	// The thief's own run: its claim lapses (here: is handed back) and its
	// resume finishes the run under the original ID.
	thief.finish()
	outcome, err := sys.ResumeDetection(ctx, taxa.Checklist, runID, orchOpts("thief", ttl))
	if err != nil {
		t.Fatalf("thief's resume: %v", err)
	}
	if outcome.RunID != runID {
		t.Fatalf("thief finished run %q, want %q", outcome.RunID, runID)
	}
	g, err := sys.Provenance.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, runID) != want {
		t.Error("stolen run's canonical graph diverges from the uninterrupted baseline")
	}
}
