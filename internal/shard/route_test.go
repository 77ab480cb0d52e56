package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fnjv"
	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// TestMergeMatchesSortedConcatenation pins the ordered merge alone: over
// random per-shard sorted lists, every limit and both dedupe settings, the
// result is the sorted concatenation (deduplicated, truncated), and cut is
// set exactly when truncation dropped something.
func TestMergeMatchesSortedConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		lists := make([][]string, 1+rng.Intn(5))
		total := 0
		for i := range lists {
			for n := rng.Intn(8); n > 0; n-- {
				// A small alphabet, so lists overlap and dedupe has work.
				lists[i] = append(lists[i], fmt.Sprintf("id-%02d", rng.Intn(20)))
			}
			slices.Sort(lists[i])
			total += len(lists[i])
		}
		for _, limit := range []int{0, 1, 3, total + 1} {
			for _, dedupe := range []bool{false, true} {
				want := slices.Concat(lists...)
				slices.Sort(want)
				if dedupe {
					want = slices.Compact(want)
				}
				wantCut := limit > 0 && len(want) > limit
				if wantCut {
					want = want[:limit]
				}
				got, cut := merge(lists, strings.Compare, limit, dedupe)
				if !slices.Equal(got, want) || cut != wantCut {
					t.Fatalf("merge(%v, limit %d, dedupe %v) = %v, cut %v; want %v, cut %v",
						lists, limit, dedupe, got, cut, want, wantCut)
				}
			}
		}
	}
}

// routeKeys is what one side of the contract test addresses: a tenant whose
// IDs all route to one shard.
type routeKeys struct {
	tenant string
}

func (k routeKeys) id(rest string) string { return Qualify(k.tenant, rest) }

// keysOwnedBy finds a tenant routed to shard i.
func keysOwnedBy(t *testing.T, c *Cluster, i int) routeKeys {
	t.Helper()
	for n := 0; n <= 10000; n++ {
		if tenant := fmt.Sprintf("t%d", n); c.OwnerIndex(tenant+Sep) == i {
			return routeKeys{tenant: tenant}
		}
	}
	t.Fatalf("no keys routed to shard %d", i)
	return routeKeys{}
}

// TestRouterContract states the routing contract once, for every routed
// method of all three routers, on a 4-shard cluster with one shard stopped.
func TestRouterContract(t *testing.T) {
	c := openCluster(t, t.TempDir(), 4)
	prov, recs, traces := c.Provenance(), c.Records(), c.Traces()

	runInfo := func(runID string) provenance.RunInfo {
		return provenance.RunInfo{RunID: runID, WorkflowID: "wf", WorkflowName: "wf",
			StartedAt: time.Unix(1700000000, 0), Status: provenance.RunRunning}
	}
	runGraph := func(runID string) *opm.Graph {
		g := opm.NewGraph()
		if err := g.AddNode(opm.Node{ID: "p:" + runID + "/proc", Kind: opm.KindProcess, Label: "proc"}); err != nil {
			t.Fatal(err)
		}
		return g
	}
	// seq keeps repeated calls from colliding: fresh IDs.
	seq := int64(0)
	next := func() int64 { seq++; return seq }
	span := []telemetry.Span{{SpanID: "s1", Name: "n", Kind: "core", Start: time.Unix(1700000000, 0), End: time.Unix(1700000001, 0)}}

	// Every per-ID method, as a call on the keys of one shard.
	perID := []struct {
		name string
		call func(k routeKeys) error
	}{
		{"provenance.Store", func(k routeKeys) error {
			return prov.Store(runInfo(k.id("run-2")), runGraph(k.id("run-2")))
		}},
		{"provenance.Run", func(k routeKeys) error { _, err := prov.Run(k.id("run-1")); return err }},
		{"provenance.Graph", func(k routeKeys) error { _, err := prov.Graph(k.id("run-1")); return err }},
		{"provenance.History", func(k routeKeys) error { _, err := prov.History(k.id("run-1")); return err }},
		{"provenance.NodesPage", func(k routeKeys) error { _, _, err := prov.NodesPage(k.id("run-1"), "", 10); return err }},
		{"provenance.EdgesPage", func(k routeKeys) error { _, _, err := prov.EdgesPage(k.id("run-1"), 0, 10); return err }},
		{"provenance.QualityOfProcess", func(k routeKeys) error {
			_, err := prov.QualityOfProcess(k.id("run-1"), "proc")
			return err
		}},
		{"provenance.ResumeRunWriter", func(k routeKeys) error {
			w, err := prov.ResumeRunWriter(k.id("run-1"), provenance.BatchWriterOptions{})
			if err != nil {
				return err
			}
			return w.Close()
		}},
		{"provenance.RunWriter first delta", func(k routeKeys) error {
			w, err := prov.RunWriter(provenance.BatchWriterOptions{})
			if err != nil {
				return err
			}
			id := k.id(fmt.Sprintf("run-w%d", next()))
			if err := w.Emit(provenance.Delta{Kind: provenance.DeltaRunStarted, Info: runInfo(id)}); err != nil {
				return err
			}
			return w.Close()
		}},
		{"records.Get", func(k routeKeys) error { _, err := recs.Get(k.id("xc-1")); return err }},
		{"records.Update", func(k routeKeys) error { return recs.Update(&fnjv.Record{ID: k.id("xc-1"), Species: "Boana c"}) }},
		{"records.ScanSpecies", func(k routeKeys) error {
			return recs.ScanSpecies(k.tenant, func(string, string) bool { return true })
		}},
		{"traces.Append", func(k routeKeys) error { return traces.Append(k.id("run-1"), span) }},
		{"traces.Spans", func(k routeKeys) error { _, err := traces.Spans(k.id("run-1")); return err }},
		{"traces.SpansPage", func(k routeKeys) error { _, _, err := traces.SpansPage(k.id("run-1"), 0, 10); return err }},
	}

	const down = 2
	downKeys, upKeys := keysOwnedBy(t, c, down), keysOwnedBy(t, c, 0)

	// Every cross-shard method. PutAll spans both sides' owners.
	scatters := []struct {
		name string
		call func() error
	}{
		{"provenance.Runs", func() error { _, err := prov.Runs("wf"); return err }},
		{"provenance.AllRuns", func() error { _, err := prov.AllRuns(); return err }},
		{"provenance.UnfinishedRuns", func() error { _, err := prov.UnfinishedRuns(); return err }},
		{"provenance.RunsPage", func() error { _, _, err := prov.RunsPage("", 0); return err }},
		{"provenance.RunsUsingArtifact", func() error { _, err := prov.RunsUsingArtifact("a:x"); return err }},
		{"records.PutAll", func() error {
			id := fmt.Sprintf("xc-all%d", next())
			return recs.PutAll([]*fnjv.Record{{ID: downKeys.id(id)}, {ID: upKeys.id(id)}})
		}},
		{"records.Scan", func() error { return recs.Scan(func(*fnjv.Record) bool { return true }) }},
		{"records.ScanSpecies", func() error { return recs.ScanSpecies("", func(string, string) bool { return true }) }},
		{"records.DistinctSpecies", func() error { _, err := recs.DistinctSpecies(); return err }},
		{"records.Stats", func() error { _, err := recs.Stats(); return err }},
		{"records.Query", func() error { _, err := recs.Query(fnjv.Predicate{State: "SP"}, fnjv.QueryOptions{}); return err }},
	}

	// Seed what the reads need on both sides while every shard is up.
	for _, k := range []routeKeys{downKeys, upKeys} {
		if err := prov.Store(runInfo(k.id("run-1")), runGraph(k.id("run-1"))); err != nil {
			t.Fatal(err)
		}
		if err := recs.PutAll([]*fnjv.Record{{ID: k.id("xc-1"), Species: "Boana a", State: "SP"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.StopShard(down); err != nil {
		t.Fatal(err)
	}

	gauges := func(i int) (ops, errs float64) {
		counters := c.Counters()
		return counters[shardName(i)+".ops"], counters[shardName(i)+".errors"]
	}
	for _, m := range perID {
		ops, errs := gauges(down)
		err := m.call(downKeys)
		if !errors.Is(err, ErrShardDown) {
			t.Errorf("%s on the stopped shard: %v, want ErrShardDown", m.name, err)
		}
		if o, e := gauges(down); o != ops+1 || e != errs+1 {
			t.Errorf("%s on the stopped shard: ops +%v, errors +%v, want +1, +1", m.name, o-ops, e-errs)
		}

		ops, errs = gauges(0)
		if err := m.call(upKeys); err != nil {
			t.Errorf("%s on a live shard: %v", m.name, err)
		}
		if o, e := gauges(0); o != ops+1 || e != errs {
			t.Errorf("%s on a live shard: ops +%v, errors +%v, want +1, +0", m.name, o-ops, e-errs)
		}
	}
	for _, m := range scatters {
		err := m.call()
		if !errors.Is(err, ErrShardDown) || !strings.Contains(err.Error(), shardName(down)) {
			t.Errorf("%s with %s stopped: %v, want ErrShardDown naming the shard", m.name, shardName(down), err)
		}
	}

	// Shard loss stays isolated: a batch no stopped shard owns part of lands.
	if err := recs.PutAll([]*fnjv.Record{{ID: upKeys.id("xc-isolated")}}); err != nil {
		t.Errorf("records.PutAll on live shards only, with %s stopped: %v", shardName(down), err)
	}

	if err := c.RejoinShard(down); err != nil {
		t.Fatal(err)
	}
	for _, m := range perID {
		if err := m.call(downKeys); err != nil {
			t.Errorf("%s after rejoin: %v", m.name, err)
		}
	}
	for _, m := range scatters {
		if err := m.call(); err != nil {
			t.Errorf("%s after rejoin: %v", m.name, err)
		}
	}
}
