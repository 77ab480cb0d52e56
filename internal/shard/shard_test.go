package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fnjv"
	"repro/internal/opm"
	"repro/internal/provenance"
)

func openCluster(t *testing.T, dir string, shards int) *Cluster {
	t.Helper()
	c, err := Open(dir, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	r1 := NewRing(4, DefaultVNodes)
	r2 := NewRing(4, DefaultVNodes)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("key-%d", i)
		o := r1.Owner(key)
		if o2 := r2.Owner(key); o2 != o {
			t.Fatalf("ring not deterministic: %s -> %d vs %d", key, o, o2)
		}
		counts[o]++
	}
	for s, n := range counts {
		// Perfect balance is 1000/shard; consistent hashing should land
		// every shard within a loose factor of it.
		if n < 400 || n > 2000 {
			t.Fatalf("shard %d owns %d of 4000 keys — ring badly unbalanced %v", s, n, counts)
		}
	}
}

func TestRouteKeyTenantAffinity(t *testing.T) {
	// Every ID of one tenant routes by the tenant, so the whole tenant
	// lands on one shard.
	if RouteKey("acme:run-000001") != "acme" || RouteKey("acme:xc-77") != "acme" {
		t.Fatal("tenant-qualified IDs must route by tenant")
	}
	// Legacy unqualified IDs route by themselves (spread across shards).
	if RouteKey("run-000001") != "run-000001" {
		t.Fatal("unqualified IDs must route by full ID")
	}
	r := NewRing(4, DefaultVNodes)
	want := r.Owner("acme")
	for i := 0; i < 50; i++ {
		if got := r.Owner(RouteKey(fmt.Sprintf("acme:run-%06d", i))); got != want {
			t.Fatalf("tenant acme split across shards: %d vs %d", got, want)
		}
	}
}

func TestValidTenant(t *testing.T) {
	for _, ok := range []string{"acme", "a-1", "tenant-42"} {
		if !ValidTenant(ok) {
			t.Errorf("ValidTenant(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "ACME", "a:b", "a b", "ü", string(make([]byte, 65))} {
		if ValidTenant(bad) {
			t.Errorf("ValidTenant(%q) = true", bad)
		}
	}
}

func TestShardMapPersistedAndEnforced(t *testing.T) {
	dir := t.TempDir()
	c := openCluster(t, dir, 4)
	if len(c.shards) != 4 {
		t.Fatalf("N = %d, want 4", len(c.shards))
	}
	c.Close()

	// Reopen with 0 adopts the persisted topology.
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.shards) != 4 {
		t.Fatalf("adopted N = %d, want 4", len(c2.shards))
	}
	c2.Close()

	// Reopen with a different shard count must refuse, not silently reshard.
	if _, err := Open(dir, Options{Shards: 2}); err == nil {
		t.Fatal("open with mismatched shard count succeeded")
	}
}

func TestRecordRouterMatchesSingleStoreSemantics(t *testing.T) {
	c := openCluster(t, t.TempDir(), 4)
	recs := c.Records()
	var put []*fnjv.Record
	for i := 0; i < 40; i++ {
		r := &fnjv.Record{
			ID:      fmt.Sprintf("xc-%03d", i),
			Species: fmt.Sprintf("Boana sp%d", i%7),
			State:   []string{"SP", "MG", "RJ"}[i%3],
		}
		put = append(put, r)
	}
	if err := recs.PutAll(put); err != nil {
		t.Fatal(err)
	}
	if n := recs.Len(); n != 40 {
		t.Fatalf("Len = %d, want 40", n)
	}
	// Records actually spread: no shard should hold everything.
	owners := map[int]int{}
	for _, r := range put {
		owners[c.OwnerIndex(r.ID)]++
	}
	if len(owners) < 2 {
		t.Fatalf("all records on one shard: %v", owners)
	}
	got, err := recs.Get("xc-017")
	if err != nil || got.Species != "Boana sp3" {
		t.Fatalf("Get: %+v, %v", got, err)
	}
	// Scan visits everything; ordering is by ID as in the single store.
	var scanned []string
	if err := recs.Scan(func(r *fnjv.Record) bool {
		scanned = append(scanned, r.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != 40 || scanned[0] != "xc-000" || scanned[39] != "xc-039" {
		t.Fatalf("Scan order broken: %d records, first %s last %s", len(scanned), scanned[0], scanned[len(scanned)-1])
	}
	// Query with a limit: global top-k by ID.
	q, err := recs.Query(fnjv.Predicate{State: "SP"}, fnjv.QueryOptions{Limit: 5, OrderBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 5 || q[0].ID != "xc-000" || q[4].ID != "xc-012" {
		ids := make([]string, len(q))
		for i, r := range q {
			ids[i] = r.ID
		}
		t.Fatalf("Query top-5 = %v", ids)
	}
	stats, err := recs.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 40 || stats.DistinctSpecies != 7 {
		t.Fatalf("Stats = %+v", stats)
	}
}

func storeRun(t *testing.T, repo provenance.Repo, runID string) {
	t.Helper()
	g := opm.NewGraph()
	if err := g.AddNode(opm.Node{ID: "p1", Kind: opm.KindProcess, Label: "proc"}); err != nil {
		t.Fatal(err)
	}
	err := repo.Store(provenance.RunInfo{
		RunID: runID, WorkflowID: "wf", WorkflowName: "wf",
		StartedAt: time.Unix(1700000000, 0), FinishedAt: time.Unix(1700000001, 0),
		Status: provenance.RunCompleted,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
}

func TestProvenanceRouterRunLookupAndMerge(t *testing.T) {
	c := openCluster(t, t.TempDir(), 4)
	prov := c.Provenance()
	var ids []string
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("run-%06d", i)
		storeRun(t, prov, id)
		ids = append(ids, id)
	}
	for _, id := range ids {
		info, err := prov.Run(id)
		if err != nil || info.RunID != id {
			t.Fatalf("Run(%s): %+v, %v", id, info, err)
		}
	}
	all, err := prov.AllRuns()
	if err != nil || len(all) != 12 {
		t.Fatalf("AllRuns = %d, %v, want 12", len(all), err)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].RunID >= all[i].RunID {
			t.Fatalf("AllRuns not sorted: %s >= %s", all[i-1].RunID, all[i].RunID)
		}
	}
	runs, err := prov.Runs("wf")
	if err != nil || len(runs) != 12 {
		t.Fatalf("Runs(wf) = %d, %v", len(runs), err)
	}
}

func TestRoutedWriterRoutesByRunID(t *testing.T) {
	c := openCluster(t, t.TempDir(), 4)
	prov := c.Provenance()
	w, err := prov.RunWriter(provenance.BatchWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runID := "acme:run-000001"
	info := provenance.RunInfo{RunID: runID, WorkflowID: "wf", WorkflowName: "wf",
		StartedAt: time.Unix(1700000000, 0), Status: provenance.RunRunning}
	if err := w.Emit(provenance.Delta{Kind: provenance.DeltaRunStarted, Info: info}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := prov.Run(runID)
	if err != nil || got.RunID != runID {
		t.Fatalf("routed run lookup: %+v, %v", got, err)
	}
	// The run physically lives on the tenant's shard.
	b, err := c.shards[c.OwnerIndex(runID)].live()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.prov.Run(runID); err != nil {
		t.Fatalf("run not on owning shard: %v", err)
	}
}

func TestRoutedWriterRefusesUnroutedDeltas(t *testing.T) {
	c := openCluster(t, t.TempDir(), 2)
	w, err := c.Provenance().RunWriter(provenance.BatchWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Emit(provenance.Delta{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, ErrUnroutedDeltas) {
		t.Fatalf("Close = %v, want ErrUnroutedDeltas", err)
	}
}

func TestStopShardFailsFastAndRejoinRecovers(t *testing.T) {
	c := openCluster(t, t.TempDir(), 4)
	prov := c.Provenance()
	storeRun(t, prov, "acme:run-000001")
	down := c.OwnerIndex("acme:run-000001")
	if err := c.StopShard(down); err != nil {
		t.Fatal(err)
	}

	// Affected tenant: visible degraded error, bounded latency — not a hang.
	start := time.Now()
	_, err := prov.Run("acme:run-000001")
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("query on down shard: %v, want ErrShardDown", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("down-shard query took %v — should fail fast", d)
	}

	// A tenant on another shard keeps serving.
	other := ""
	for i := 0; i < 100; i++ {
		tn := fmt.Sprintf("t%d", i)
		if c.OwnerIndex(tn+":x") != down {
			other = tn
			break
		}
	}
	storeRun(t, prov, other+":run-000001")
	if _, err := prov.Run(other + ":run-000001"); err != nil {
		t.Fatalf("unaffected tenant failed: %v", err)
	}

	// Fan-outs surface the loss instead of silently shrinking.
	if _, _, err := prov.RunsPage("", 10); err == nil {
		t.Fatal("RunsPage over a down shard must error")
	}

	// Rejoin replays the WAL: the pre-stop run is back.
	if err := c.RejoinShard(down); err != nil {
		t.Fatal(err)
	}
	if c.Down(down) {
		t.Fatal("shard still down after rejoin")
	}
	if _, err := prov.Run("acme:run-000001"); err != nil {
		t.Fatalf("run lost across stop/rejoin: %v", err)
	}
	if _, _, err := prov.RunsPage("", 10); err != nil {
		t.Fatalf("RunsPage after rejoin: %v", err)
	}
}

func TestQuotasThrottlePerTenant(t *testing.T) {
	q := NewQuotas(QuotaOptions{Rate: 100, Burst: 3})
	clock := time.Unix(1700000000, 0)
	q.now = func() time.Time { return clock }
	for i := 0; i < 3; i++ {
		if d := q.Allow("acme"); !d.Allowed {
			t.Fatalf("request %d throttled within burst", i)
		}
	}
	d := q.Allow("acme")
	if d.Allowed {
		t.Fatal("4th request allowed past burst")
	}
	if d.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v", d.RetryAfter)
	}
	// Other tenants are untouched.
	if d := q.Allow("umbrella"); !d.Allowed {
		t.Fatal("other tenant throttled")
	}
	// Tokens refill with time.
	clock = clock.Add(50 * time.Millisecond) // 100/s * 0.05s = 5 tokens, capped at burst
	if d := q.Allow("acme"); !d.Allowed {
		t.Fatal("refilled bucket still throttled")
	}
	counters := q.Counters()
	if counters["tenant.acme.throttled"] != 1 {
		t.Fatalf("throttled counter = %v", counters["tenant.acme.throttled"])
	}
}
