package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/resilience"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// runChaos is the failure-injection experiment behind the PR's robustness
// claims. Part A kills detection runs at randomized provenance-delta counts
// and proves they resume byte-identically under their original run IDs.
// Part B degrades the HTTP authority (50% availability, then a full outage
// with a latency spike) and proves assessment runs keep completing — answers
// fall back to last-known-good cache entries visibly marked Degraded while
// the circuit breaker sheds load from the dead service.
//
// The harness is a gate, not a demo: it returns an error when fewer than 99%
// of killed runs resume byte-identically or when any run hard-fails at 50%
// availability, so `make ci` fails on a robustness regression.
func runChaos(e *environment) error {
	trials, recA, spA := 40, 200, 40
	runsB, recB, spB := 6, 240, 60
	if e.short {
		trials, recA, spA = 12, 90, 18
		runsB, recB, spB = 3, 100, 25
	}
	if err := chaosCrashResume(e, trials, recA, spA); err != nil {
		return err
	}
	if err := chaosDegradedResolution(e, runsB, recB, spB); err != nil {
		return err
	}
	recD, spD := 60, 15
	if e.short {
		recD, spD = 40, 10
	}
	if err := chaosShardLoss(e, recD, spD); err != nil {
		return err
	}
	runsF, crashF := 9, 5
	if e.short {
		runsF, crashF = 5, 3
	}
	return chaosSchedulerPool(e, runsF, crashF, recA, spA)
}

// chaosSchedulerPool is Part F, the scheduler gate: one pool member drains
// a durable admission queue in which a subset of the admitted runs carries a
// seeded-random crash cut. A crashed run keeps its admission row, and the
// member's next drain resumes it. The gates: every admitted run — crashed or
// not — completes byte-identically under its original run ID; every run
// completes exactly once; each crash cut interrupts its run once; and the
// admission queue ends empty.
func chaosSchedulerPool(e *environment, runs, crashes, records, species int) error {
	fmt.Printf("--- part F: scheduler pool (1 member, %d runs, %d crash cuts) ---\n", runs, crashes)
	sys, taxa, cleanup, err := chaosSystem(records, species, e.seed+601)
	if err != nil {
		return err
	}
	defer cleanup()
	ctx := context.Background()

	baseline, err := sys.RunDetection(ctx, taxa.Checklist, core.RunOptions{SkipLedger: true, Parallel: 1, Untraced: true})
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}
	baseG, err := sys.Provenance.Graph(baseline.RunID)
	if err != nil {
		return err
	}
	want := canonicalProvenance(baseG, baseline.RunID)
	total := int(baseline.ProvenanceWriter.Enqueued)

	// Admit everything up front: the queue is the durable work list. The
	// first `crashes` admissions carry a random history cut.
	rng := rand.New(rand.NewSource(e.seed + 607))
	admitted := make([]string, 0, runs)
	crashing := map[string]bool{}
	for i := 0; i < runs; i++ {
		opts := core.RunOptions{SkipLedger: true, Parallel: 4, Untraced: true}
		if i < crashes {
			opts.CrashAfterDeltas = 1 + rng.Intn(total-1)
		}
		adm, err := sys.AdmitDetection(opts)
		if err != nil {
			return fmt.Errorf("admit %d: %w", i, err)
		}
		admitted = append(admitted, adm.RunID)
		if opts.CrashAfterDeltas > 0 {
			crashing[adm.RunID] = true
		}
	}

	// The exactly-once gate counts OnOutcome calls, which fire only when an
	// execution produced an outcome; interruptions come from the member's
	// events.
	var mu sync.Mutex
	execs := map[string]int{}
	interrupted := map[string]int{}
	be := sys.SchedulerBackend(taxa.Checklist, core.RunOptions{SkipLedger: true, Parallel: 4, Untraced: true},
		func(o *core.DetectionOutcome) {
			mu.Lock()
			execs[o.RunID]++
			mu.Unlock()
		})
	member := &cluster.Scheduler{
		Name: "orch-a", Leases: sys.Leases, Backend: be, Poll: 10 * time.Millisecond, Seed: e.seed,
		OnEvent: func(ev cluster.SchedulerEvent) {
			if ev.Kind == "interrupted" {
				mu.Lock()
				interrupted[ev.Run]++
				mu.Unlock()
			}
		},
	}
	if err := member.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", member.Name, err)
	}
	defer member.Stop()

	// Drain: every admission settled and every run terminal.
	deadline := time.Now().Add(90 * time.Second)
	for {
		unfinished, err := sys.Provenance.UnfinishedRuns()
		if err != nil {
			return err
		}
		if sys.Admissions.Depth() == 0 && len(unfinished) == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos gate: pool did not drain (%d queued, %d unfinished)", sys.Admissions.Depth(), len(unfinished))
		}
		time.Sleep(20 * time.Millisecond)
	}
	member.Stop()

	mu.Lock()
	defer mu.Unlock()
	identical, resumed := 0, 0
	for _, runID := range admitted {
		info, err := sys.Provenance.Run(runID)
		if err != nil || info.Status != provenance.RunCompleted {
			return fmt.Errorf("chaos gate: run %s ended %v (%v), want completed", runID, info.Status, err)
		}
		if n := execs[runID]; n != 1 {
			return fmt.Errorf("chaos gate: run %s completed %d times, want exactly once", runID, n)
		}
		g, err := sys.Provenance.Graph(runID)
		if err != nil {
			return err
		}
		if canonicalProvenance(g, runID) != want {
			return fmt.Errorf("chaos gate: run %s graph diverged from the uninterrupted baseline", runID)
		}
		identical++
		switch n := interrupted[runID]; {
		case crashing[runID] && n == 1:
			resumed++
		case n != 0 || crashing[runID]:
			return fmt.Errorf("chaos gate: run %s interrupted %d times (crash cut: %v)", runID, n, crashing[runID])
		}
	}

	fmt.Printf("  pool drained: %d/%d runs byte-identical under original IDs, %d resumed after a crash cut, queue empty\n",
		identical, runs, resumed)
	return nil
}

// chaosShardLoss is Part D, the sharding half of the failure model: a
// 4-shard cluster serves four tenants (one per shard, by tenant affinity)
// under sustained detect traffic when one shard is killed mid-stream. The
// gates: tenants on surviving shards keep completing runs during the whole
// outage; the dead tenant's queries and runs fail fast with a visible
// ErrShardDown (bounded latency, never a hang); cross-shard listings report
// the outage instead of silently dropping the shard; and after RejoinShard
// the WAL replay restores the dead tenant's lineage byte-identically.
func chaosShardLoss(e *environment, records, species int) error {
	fmt.Printf("--- part D: shard loss (%d records, %d species per tenant) ---\n", records, species)
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species:             species,
		OutdatedFraction:    0.08,
		ProvisionalFraction: 0.05,
		Seed:                e.seed + 401,
	})
	if err != nil {
		return err
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{
		Records: records, Seed: e.seed + 402, SyntaxErrorRate: 1e-12,
	}, taxa, geo.SyntheticGazetteer(10, e.seed+403), envsource.NewSimulator())
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "fnjv-shardloss-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sys, err := core.Open(dir, core.Options{Sync: storage.SyncNever, Shards: 4})
	if err != nil {
		return err
	}
	defer sys.Close()

	names := loadTenantNames(4, 4)
	for _, tenant := range names {
		owned := make([]*fnjv.Record, 0, len(col.Records))
		for _, rec := range col.Records {
			r := *rec
			r.ID = tenant + shard.Sep + r.ID
			owned = append(owned, &r)
		}
		if err := sys.Records.PutAll(owned); err != nil {
			return err
		}
	}
	ctx := context.Background()
	opts := func(tenant string) core.RunOptions {
		return core.RunOptions{Tenant: tenant, SkipLedger: true, Untraced: true}
	}

	// Baseline run per tenant; the victim's canonical lineage is the
	// recovery oracle.
	victim := names[0]
	victimShard := sys.Cluster.OwnerIndex(victim + shard.Sep)
	baseRuns := map[string]string{}
	for _, tenant := range names {
		out, err := sys.RunDetection(ctx, taxa.Checklist, opts(tenant))
		if err != nil {
			return fmt.Errorf("baseline run for %s: %w", tenant, err)
		}
		baseRuns[tenant] = out.RunID
	}
	victimRun := baseRuns[victim]
	g, err := sys.Provenance.Graph(victimRun)
	if err != nil {
		return err
	}
	wantVictim := canonicalProvenance(g, victimRun)

	// Sustained traffic on the three surviving tenants for the whole trial.
	stop := make(chan struct{})
	errCh := make(chan error, len(names))
	counts := make([]atomic.Int64, len(names)-1)
	var wg sync.WaitGroup
	for i, tenant := range names[1:] {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sys.RunDetection(ctx, taxa.Checklist, opts(tenant)); err != nil {
					errCh <- fmt.Errorf("tenant %s during trial: %w", tenant, err)
					return
				}
				counts[i].Add(1)
			}
		}(i, tenant)
	}
	waitProgress := func(min []int64, what string) error {
		deadline := time.Now().Add(30 * time.Second)
		for {
			ok := true
			for i := range counts {
				if counts[i].Load() < min[i] {
					ok = false
				}
			}
			if ok {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard-loss gate: surviving tenants made no progress %s", what)
			}
			select {
			case err := <-errCh:
				return err
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	pre := make([]int64, len(counts))
	for i := range pre {
		pre[i] = 1
	}
	if err := waitProgress(pre, "before the kill"); err != nil {
		return err
	}

	// Kill the victim's shard mid-traffic.
	if err := sys.Cluster.StopShard(victimShard); err != nil {
		return err
	}
	fmt.Printf("  killed %s (tenant %s) mid-traffic\n", fmt.Sprintf("shard-%04d", victimShard), victim)

	// Affected queries: a visible, fast ErrShardDown — not a hang.
	t0 := time.Now()
	_, gerr := sys.Provenance.Graph(victimRun)
	if gerr == nil || !errors.Is(gerr, shard.ErrShardDown) {
		return fmt.Errorf("shard-loss gate: victim lineage query returned %v, want ErrShardDown", gerr)
	}
	if d := time.Since(t0); d > time.Second {
		return fmt.Errorf("shard-loss gate: victim query took %v to fail, want fail-fast", d)
	}
	t0 = time.Now()
	_, rerr := sys.RunDetection(ctx, taxa.Checklist, opts(victim))
	if rerr == nil || !errors.Is(rerr, shard.ErrShardDown) {
		return fmt.Errorf("shard-loss gate: victim detect returned %v, want ErrShardDown", rerr)
	}
	if d := time.Since(t0); d > 2*time.Second {
		return fmt.Errorf("shard-loss gate: victim detect took %v to fail, want fail-fast", d)
	}
	// Cross-shard listings name the outage instead of dropping the shard.
	if _, _, lerr := sys.Provenance.RunsPage("", 10); lerr == nil || !errors.Is(lerr, shard.ErrShardDown) {
		return fmt.Errorf("shard-loss gate: cross-shard listing returned %v, want ErrShardDown", lerr)
	}

	// Surviving tenants keep completing runs during the outage.
	during := make([]int64, len(counts))
	for i := range during {
		during[i] = counts[i].Load() + 2
	}
	if err := waitProgress(during, "while the shard was down"); err != nil {
		return err
	}

	// Rejoin: WAL replay restores the victim byte-identically and the
	// tenant serves again.
	if err := sys.Cluster.RejoinShard(victimShard); err != nil {
		return fmt.Errorf("rejoin: %w", err)
	}
	g, err = sys.Provenance.Graph(victimRun)
	if err != nil {
		return fmt.Errorf("victim lineage after rejoin: %w", err)
	}
	if canonicalProvenance(g, victimRun) != wantVictim {
		return fmt.Errorf("shard-loss gate: victim lineage diverged after rejoin")
	}
	if _, err := sys.RunDetection(ctx, taxa.Checklist, opts(victim)); err != nil {
		return fmt.Errorf("victim detect after rejoin: %w", err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	served := int64(0)
	for i := range counts {
		served += counts[i].Load()
	}
	fmt.Printf("  survivors completed %d runs through the outage; victim failed fast, rejoined, lineage byte-identical\n", served)
	return nil
}

// chaosSystem builds a small self-contained preservation system so chaos
// trials never disturb the substrate shared by the calibration experiments.
func chaosSystem(records, species int, seed int64) (*core.System, *taxonomy.Generated, func(), error) {
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species:             species,
		OutdatedFraction:    0.08,
		ProvisionalFraction: 0.05,
		Seed:                seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	gaz := geo.SyntheticGazetteer(12, seed+1)
	col, err := fnjv.Generate(fnjv.CollectionSpec{
		Records: records, Seed: seed + 2, SyntaxErrorRate: 1e-12,
	}, taxa, gaz, envsource.NewSimulator())
	if err != nil {
		return nil, nil, nil, err
	}
	dir, err := os.MkdirTemp("", "fnjv-chaos-*")
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := core.Open(dir, core.Options{Sync: storage.SyncNever})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	cleanup := func() {
		sys.Close()
		os.RemoveAll(dir)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	return sys, taxa, cleanup, nil
}

// countingResolver measures duplicate resolution work across crash+resume.
type countingResolver struct {
	inner taxonomy.Resolver
	calls atomic.Int64
}

func (c *countingResolver) Resolve(ctx context.Context, name string) (taxonomy.Resolution, error) {
	c.calls.Add(1)
	return c.inner.Resolve(ctx, name)
}

// canonicalProvenance renders a run's graph with the run ID scrubbed and
// wall-clock annotations dropped, so a resumed run can be compared
// byte-for-byte against an uninterrupted one. (Mirrors the core test
// helper; test helpers are not importable from a command.)
func canonicalProvenance(g *opm.Graph, runID string) string {
	scrub := func(s string) string { return strings.ReplaceAll(s, runID, "RUN") }
	lines := make([]string, 0, g.NodeCount()+g.EdgeCount())
	for _, n := range g.Nodes() {
		ann := make([]string, 0, len(n.Annotations))
		for k, v := range n.Annotations {
			if k == "duration" {
				continue
			}
			ann = append(ann, scrub(k)+"="+scrub(v))
		}
		sort.Strings(ann)
		lines = append(lines, fmt.Sprintf("N|%d|%s|%s|%s|%s",
			n.Kind, scrub(n.ID), scrub(n.Label), scrub(n.Value), strings.Join(ann, ",")))
	}
	for _, e := range g.Edges() {
		lines = append(lines, fmt.Sprintf("E|%d|%s|%s|%s|%s",
			e.Kind, scrub(e.Effect), scrub(e.Cause), e.Role, scrub(e.Account)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// chaosCrashResume is Part A: kill runs at seeded-random delta cuts, rediscover
// them through the unfinished-run marker, resume, and diff the final graphs.
func chaosCrashResume(e *environment, trials, records, species int) error {
	fmt.Printf("--- part A: crash/resume (%d trials, %d records, %d species) ---\n", trials, records, species)
	sys, taxa, cleanup, err := chaosSystem(records, species, e.seed+101)
	if err != nil {
		return err
	}
	defer cleanup()
	counter := &countingResolver{inner: taxa.Checklist}
	opts := core.RunOptions{SkipLedger: true, Parallel: e.parallel}
	ctx := context.Background()

	baseline, err := sys.RunDetection(ctx, counter, opts)
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}
	baseCalls := counter.calls.Load()
	baseG, err := sys.Provenance.Graph(baseline.RunID)
	if err != nil {
		return err
	}
	want := canonicalProvenance(baseG, baseline.RunID)
	total := int(baseline.ProvenanceWriter.Enqueued)
	if total < 3 {
		return fmt.Errorf("baseline persisted only %d deltas; nothing to cut", total)
	}
	fmt.Printf("  baseline: %d names, %d provenance deltas, %d resolver calls\n",
		baseline.DistinctNames, total, baseCalls)

	rng := rand.New(rand.NewSource(e.seed + 7))
	killed, resumedOK, identical := 0, 0, 0
	var dupSum float64
	for trial := 0; trial < trials; trial++ {
		cut := 1 + rng.Intn(total-1)
		kill := opts
		kill.CrashAfterDeltas = cut
		counter.calls.Store(0)
		_, err := sys.RunDetection(ctx, counter, kill)
		var crash *core.CrashError
		if !errors.As(err, &crash) {
			return fmt.Errorf("trial %d: expected a kill at cut %d, got %v", trial, cut, err)
		}
		killed++

		// Rediscover the victim the way a restarted process would: by its
		// unfinished-run marker, not by a remembered ID.
		unfinished, err := sys.Provenance.UnfinishedRuns()
		if err != nil {
			return err
		}
		if len(unfinished) != 1 || unfinished[0].RunID != crash.RunID {
			return fmt.Errorf("trial %d: unfinished marker lost (found %d)", trial, len(unfinished))
		}

		outcome, err := sys.ResumeDetection(ctx, counter, crash.RunID, opts)
		if err != nil {
			fmt.Printf("  trial %2d: cut %3d  resume FAILED: %v\n", trial, cut, err)
			continue
		}
		resumedOK++
		g, err := sys.Provenance.Graph(crash.RunID)
		if err != nil {
			return err
		}
		if canonicalProvenance(g, crash.RunID) != want {
			fmt.Printf("  trial %2d: cut %3d  resumed graph DIVERGED\n", trial, cut)
			continue
		}
		identical++
		// Duplicate work: resolver calls across the killed attempt plus the
		// resume, beyond what one clean run costs.
		dupSum += float64(counter.calls.Load()-baseCalls) / float64(baseCalls)
		if outcome.DistinctNames != baseline.DistinctNames || outcome.Outdated != baseline.Outdated {
			return fmt.Errorf("trial %d: summary diverged after resume", trial)
		}
	}
	fmt.Printf("  killed: %d   resumed: %d   byte-identical graphs: %d (%.1f%%)\n",
		killed, resumedOK, identical, pct(identical, killed))
	if identical > 0 {
		fmt.Printf("  duplicate-work ratio (extra resolver calls / baseline): avg %.2f\n", dupSum/float64(identical))
	}

	// One more kill, recovered through the startup sweep instead of a direct
	// resume — the path cmd/fnjvweb takes on boot.
	kill := opts
	kill.CrashAfterDeltas = 1 + rng.Intn(total-1)
	if _, err := sys.RunDetection(ctx, counter, kill); err == nil {
		return fmt.Errorf("sweep demo: kill did not kill")
	}
	report, err := sys.SweepUnfinishedRuns(ctx, counter, opts)
	if err != nil {
		return err
	}
	fmt.Printf("  startup sweep: found %d unfinished, resumed %d, abandoned %d\n",
		report.Found, len(report.Resumed), len(report.Abandoned))
	for k, v := range core.RecoveryCounters() {
		fmt.Printf("    %-22s %.0f\n", k, v)
	}

	if float64(identical) < 0.99*float64(killed) {
		return fmt.Errorf("chaos gate: only %d/%d killed runs resumed byte-identical (<99%%)", identical, killed)
	}
	return nil
}

// transitionLog records breaker state changes; OnStateChange runs under the
// breaker's lock, so it only appends.
type transitionLog struct {
	mu     sync.Mutex
	events []string
}

func (t *transitionLog) record(from, to resilience.State) {
	t.mu.Lock()
	t.events = append(t.events, fmt.Sprintf("%s→%s", from, to))
	t.mu.Unlock()
}

func (t *transitionLog) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) == 0 {
		return "(none)"
	}
	return strings.Join(t.events, ", ")
}

// chaosDegradedResolution is Part B: assessment runs against a flaky, then
// dead, then recovered HTTP authority behind the full resilience stack.
func chaosDegradedResolution(e *environment, runs, records, species int) error {
	fmt.Printf("--- part B: degraded resolution (%d records, %d species) ---\n", records, species)
	sys, taxa, cleanup, err := chaosSystem(records, species, e.seed+211)
	if err != nil {
		return err
	}
	defer cleanup()

	svc := taxonomy.NewService(taxa.Checklist)
	server := httptest.NewServer(svc)
	defer server.Close()
	client := taxonomy.NewClient(server.URL)
	client.Retries = 1
	client.Backoff = 2 * time.Millisecond

	transitions := &transitionLog{}
	rr := taxonomy.NewResilientResolver(client, taxonomy.ResilienceOptions{
		// Short TTL so outage phases actually reach the guards instead of
		// being absorbed by fresh cache hits.
		TTL:         20 * time.Millisecond,
		CallTimeout: time.Second,
		Breaker: resilience.BreakerOptions{
			Window:           20,
			MinSamples:       10,
			FailureThreshold: 0.6,
			Cooldown:         250 * time.Millisecond,
			OnStateChange:    transitions.record,
		},
	})
	opts := core.RunOptions{SkipLedger: true, Parallel: e.parallel}
	ctx := context.Background()
	hardFails := 0

	// Phase 1: healthy authority; warms the last-known-good cache.
	warm, err := sys.RunDetection(ctx, rr, opts)
	if err != nil {
		return fmt.Errorf("warm run: %w", err)
	}
	fmt.Printf("  phase 1 (healthy):   %d names, degraded %d, unavailable %d\n",
		warm.DistinctNames, warm.Degraded, warm.Unavailable)

	// Phase 2: the acceptance criterion — at 50%% availability, zero
	// assessment runs may hard-fail.
	svc.SetAvailability(0.5)
	for i := 0; i < runs; i++ {
		time.Sleep(25 * time.Millisecond) // let cache entries expire
		out, err := sys.RunDetection(ctx, rr, opts)
		if err != nil {
			hardFails++
			fmt.Printf("  phase 2 run %d: HARD FAIL: %v\n", i, err)
			continue
		}
		fmt.Printf("  phase 2 (50%% avail): run %d  degraded %d, unavailable %d, outdated %d\n",
			i, out.Degraded, out.Unavailable, out.Outdated)
	}

	// Phase 3: full outage plus a latency spike; stale answers keep the runs
	// completing, and the breaker opens once it has seen enough failed calls.
	// The engine hands the stack a run's names in one batch and a batch is
	// one guarded call — one breaker sample, one request to the dead
	// authority — so that takes several runs: the phase lasts until the
	// breaker opens, at most one breaker window of runs.
	svc.SetAvailability(0)
	svc.SetLatency(5 * time.Millisecond)
	time.Sleep(25 * time.Millisecond)
	for i := 0; i < 20 && rr.BreakerState() != resilience.Open; i++ {
		out, err := sys.RunDetection(ctx, rr, opts)
		if err != nil {
			hardFails++
			fmt.Printf("  phase 3 run %d: HARD FAIL: %v\n", i, err)
			continue
		}
		fmt.Printf("  phase 3 (outage):    run %d  degraded %d, unavailable %d  breaker=%s\n",
			i, out.Degraded, out.Unavailable, rr.BreakerState())
		time.Sleep(25 * time.Millisecond) // let cache entries expire
	}

	// Phase 4: the authority recovers; the breaker probes its way closed.
	// Probes are admitted one at a time (no recovery stampede), so under a
	// parallel engine a whole run can drain as fast rejections while one
	// probe's HTTP call is still in flight — drive the probes sequentially,
	// as a health check would.
	svc.SetAvailability(1)
	svc.SetLatency(0)
	time.Sleep(300 * time.Millisecond) // past the cooldown
	names, err := sys.TenantDistinctNames("")
	if err != nil {
		return err
	}
	for i := 0; i < 4 && i < len(names); i++ {
		rr.Resolve(ctx, names[i])
	}
	rec, err := sys.RunDetection(ctx, rr, opts)
	if err != nil {
		return fmt.Errorf("recovery run: %w", err)
	}
	fmt.Printf("  phase 4 (recovered): degraded %d, unavailable %d  breaker=%s\n",
		rec.Degraded, rec.Unavailable, rr.BreakerState())

	fmt.Printf("  breaker transitions: %s\n", transitions)
	counters := rr.Counters()
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("  resilience counters:")
	for _, k := range keys {
		fmt.Printf("    %-22s %.0f\n", k, counters[k])
	}

	if hardFails > 0 {
		return fmt.Errorf("chaos gate: %d assessment runs hard-failed under degraded availability", hardFails)
	}
	fmt.Println("  zero hard failures under 50% availability and full outage")
	return nil
}
