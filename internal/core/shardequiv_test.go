package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// TestShardedDetectionEquivalence is the sharding acceptance gate: the same
// collection assessed on an unsharded system and on a 4-shard cluster must
// produce byte-identical canonical lineage and identical quality
// annotations. Routing, scatter-gather merges and the routed writer are
// transport — they must never change what the provenance says.
func TestShardedDetectionEquivalence(t *testing.T) {
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 120, OutdatedFraction: 0.07, ProvisionalFraction: 0.1, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	gaz := geo.SyntheticGazetteer(15, 6)
	col, err := fnjv.Generate(fnjv.CollectionSpec{
		Records: 600, Seed: 5, SyntaxErrorRate: 1e-12,
	}, taxa, gaz, envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}

	type shape struct {
		summary string
		graph   string
		quality string
		renames string
	}
	run := func(t *testing.T, shards int) shape {
		t.Helper()
		sys, err := Open(t.TempDir(), Options{Sync: storage.SyncNever, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		if err := sys.Records.PutAll(col.Records); err != nil {
			t.Fatal(err)
		}
		outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := sys.Provenance.Graph(outcome.RunID)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sys.Provenance.QualityOfProcess(outcome.RunID, "Catalog_of_life")
		if err != nil {
			t.Fatal(err)
		}
		qk := make([]string, 0, len(q))
		for k := range q {
			qk = append(qk, k+"="+q[k])
		}
		sort.Strings(qk)
		rn := make([]string, 0, len(outcome.Renames))
		for from, to := range outcome.Renames {
			rn = append(rn, from+"->"+to)
		}
		sort.Strings(rn)
		return shape{
			summary: fmt.Sprintf("processed=%d distinct=%d outdated=%d unknown=%d unavailable=%d updates=%d",
				outcome.RecordsProcessed, outcome.DistinctNames, outcome.Outdated,
				outcome.Unknown, outcome.Unavailable, outcome.UpdatesCreated),
			graph:   canonicalGraph(g, outcome.RunID),
			quality: fmt.Sprint(qk),
			renames: fmt.Sprint(rn),
		}
	}

	unsharded := run(t, 0)
	sharded := run(t, 4)

	if sharded.summary != unsharded.summary {
		t.Errorf("summaries diverge:\nunsharded: %s\nsharded:   %s", unsharded.summary, sharded.summary)
	}
	if sharded.quality != unsharded.quality {
		t.Errorf("quality annotations diverge:\nunsharded: %s\nsharded:   %s", unsharded.quality, sharded.quality)
	}
	if sharded.renames != unsharded.renames {
		t.Errorf("renames diverge")
	}
	if sharded.graph != unsharded.graph {
		t.Errorf("canonical lineage diverges between sharded and unsharded runs (len %d vs %d)",
			len(sharded.graph), len(unsharded.graph))
	}
}

// TestShardedTenantRunsAreScoped pins the tenant contract end to end: a
// tenant's detection run is minted under its qualifier, sees only the
// tenant's slice of the collection, and lands on the tenant's shard.
func TestShardedTenantRunsAreScoped(t *testing.T) {
	sys, err := Open(t.TempDir(), Options{Sync: storage.SyncNever, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 40, OutdatedFraction: 0.1, ProvisionalFraction: 0.1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{
		Records: 120, Seed: 3, SyntaxErrorRate: 1e-12,
	}, taxa, geo.SyntheticGazetteer(8, 4), envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	// Two tenants, each owning a private copy of a slice of the collection.
	tenanted := make([]*fnjv.Record, len(col.Records))
	for i, rec := range col.Records {
		r := *rec
		if i%2 == 0 {
			r.ID = "acme:" + r.ID
		} else {
			r.ID = "umbrella:" + r.ID
		}
		tenanted[i] = &r
	}
	if err := sys.Records.PutAll(tenanted); err != nil {
		t.Fatal(err)
	}
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{Tenant: "acme", SkipLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := shard.Split(outcome.RunID); got != "acme" {
		t.Fatalf("run ID %q not tenant-qualified", outcome.RunID)
	}
	if outcome.RecordsProcessed != 60 {
		t.Fatalf("tenant run processed %d records, want its own 60", outcome.RecordsProcessed)
	}
	// The whole tenant — records and run — lives on one shard.
	cl := sys.Cluster
	want := cl.OwnerIndex(outcome.RunID)
	if got := cl.OwnerIndex("acme:any-record"); got != want {
		t.Fatalf("tenant split across shards: run on %d, records on %d", want, got)
	}
}

// TestTenantDistinctNamesSkipsBlankSpecies: a record with a blank species
// carries no name, for a tenant's run exactly as for the whole collection. A
// blank counted as a distinct name would reach the authority as an "unknown"
// name and lower the tenant's accuracy score.
func TestTenantDistinctNamesSkipsBlankSpecies(t *testing.T) {
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	named := taxa.HistoricalNames[:3]
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys, err := Open(t.TempDir(), Options{Sync: storage.SyncNever, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			var recs []*fnjv.Record
			for i, species := range append([]string{""}, named...) {
				recs = append(recs,
					&fnjv.Record{ID: shard.Qualify("acme", fmt.Sprintf("xc-%d", i)), Species: species},
					&fnjv.Record{ID: fmt.Sprintf("xc-%d", i), Species: species})
			}
			if err := sys.Records.PutAll(recs); err != nil {
				t.Fatal(err)
			}
			want := append([]string(nil), named...)
			sort.Strings(want)
			for _, tenant := range []string{"", "acme"} {
				names, err := sys.TenantDistinctNames(tenant)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(names) != fmt.Sprint(want) {
					t.Errorf("tenant %q: distinct names %q, want %q", tenant, names, want)
				}
			}
			outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{Tenant: "acme", SkipLedger: true})
			if err != nil {
				t.Fatal(err)
			}
			if outcome.DistinctNames != len(named) || outcome.Unknown != 0 || outcome.RecordsProcessed != len(recs)/2 {
				t.Errorf("tenant run: %d distinct names, %d unknown, %d records; want %d, 0, %d",
					outcome.DistinctNames, outcome.Unknown, outcome.RecordsProcessed, len(named), len(recs)/2)
			}
		})
	}
}
