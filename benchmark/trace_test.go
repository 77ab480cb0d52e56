package main

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

func TestSelfTimeFolding(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {50, 70}}, 70},
		{"overlapping count once", [][2]int64{{10, 40}, {30, 60}}, 50},
		{"nested", [][2]int64{{10, 90}, {20, 30}}, 20},
		{"clipped to the parent", [][2]int64{{-50, 10}, {95, 500}}, 85},
		{"outside", [][2]int64{{200, 300}}, 100},
		{"unsorted", [][2]int64{{60, 80}, {0, 20}}, 60},
	} {
		if got := selfTime(0, 100, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// countingResolver counts what reaches the bottom of a resolver stack.
type countingResolver struct {
	inner taxonomy.Resolver
	calls atomic.Int64
}

func (c *countingResolver) Resolve(ctx context.Context, name string) (taxonomy.Resolution, error) {
	c.calls.Add(1)
	return c.inner.Resolve(ctx, name)
}

func TestDecoratorsKeepCapabilities(t *testing.T) {
	rec := newRecorder()
	plain := traceResolver(&countingResolver{}, rec)
	if _, ok := plain.(taxonomy.BatchResolver); ok {
		t.Error("decorated single-name resolver claims BatchResolve; taxonomy.Coalesce would start batching it")
	}
	if _, ok := plain.(taxonomy.DetailedBatchResolver); ok {
		t.Error("decorated single-name resolver claims BatchResolveDetail")
	}
	full := traceResolver(taxonomy.NewResilientResolver(&countingResolver{}, taxonomy.ResilienceOptions{}), rec)
	if _, ok := full.(taxonomy.BatchResolver); !ok {
		t.Error("decorated resilient resolver lost BatchResolve")
	}
	if _, ok := full.(taxonomy.DetailedBatchResolver); !ok {
		t.Error("decorated resilient resolver lost BatchResolveDetail")
	}

	for _, shards := range []int{1, 2} {
		sys, err := core.Open(t.TempDir(), core.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		_, had := sys.Records.(tenantScanner)
		_, has := traceRecords(sys.Records, rec).(tenantScanner)
		if had != has {
			t.Errorf("%d shards: store has ScanTenant: %v, decorated store: %v", shards, had, has)
		}
		sys.Close()
	}
}

// detectOnce runs one detection straight on core, over a resolver stack that
// counts the calls reaching its bottom, with or without the decorators.
func detectOnce(t *testing.T, resilient, decorated bool) (detectCounts, int, int64) {
	t.Helper()
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 12, OutdatedFraction: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: 60, Seed: 9, SyntaxErrorRate: 1e-12},
		taxa, geo.SyntheticGazetteer(10, 8), envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Open(t.TempDir(), core.Options{Sync: storage.SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Records.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	bottom := &countingResolver{inner: taxa.Checklist}
	var resolver taxonomy.Resolver = bottom
	if resilient {
		resolver = taxonomy.NewResilientResolver(bottom, taxonomy.ResilienceOptions{})
	}
	if decorated {
		st := &stack{sys: sys, rec: newRecorder()}
		resolver = traceResolver(resolver, st.rec)
		st.decorate()
	}
	out, err := sys.RunDetection(context.Background(), resolver, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	history, err := sys.Provenance.History(out.RunID)
	if err != nil {
		t.Fatal(err)
	}
	return detectCounts{out.DistinctNames, out.Outdated, out.Unknown, out.Unavailable}, len(history), bottom.calls.Load()
}

func TestDecoratedRunMatchesUndecorated(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		counts, history, calls := detectOnce(t, resilient, false)
		dCounts, dHistory, dCalls := detectOnce(t, resilient, true)
		if counts != dCounts || history != dHistory || calls != dCalls {
			t.Errorf("resilient=%v: undecorated run gave %+v, %d history events, %d resolver calls; decorated %+v, %d, %d",
				resilient, counts, history, calls, dCounts, dHistory, dCalls)
		}
		if counts.Distinct != 12 || counts.Outdated == 0 || calls != 12 {
			t.Errorf("resilient=%v: run gave %+v with %d resolver calls, want 12 names, some outdated, 12 calls", resilient, counts, calls)
		}
	}
}
