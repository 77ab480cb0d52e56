package curation_test

// Outdated-name detection (the paper's stage 2) writes its proposals to this
// package's ledger but runs as the detection workflow in package core, so
// these tests drive core.RunDetection over a collection this package's
// Cleaner has cleaned.

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/curation"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// detectFixture opens a system over a generated collection of records,
// cleaned by the stage-1 cleaner when clean is set.
func detectFixture(t *testing.T, records int, clean bool) (*core.System, *taxonomy.Generated) {
	t.Helper()
	sys, err := core.Open(t.TempDir(), core.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 150, OutdatedFraction: 0.07, ProvisionalFraction: 0.1, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: records, Seed: 33}, taxa, geo.SyntheticGazetteer(15, 8), envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	if clean {
		if _, err := (&curation.Cleaner{Checklist: taxa.Checklist}).Clean(sys.Records); err != nil {
			t.Fatal(err)
		}
	}
	return sys, taxa
}

func detect(t *testing.T, sys *core.System, resolver taxonomy.Resolver) *core.DetectionOutcome {
	t.Helper()
	outcome, err := sys.RunDetection(context.Background(), resolver, core.RunOptions{SkipLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	return outcome
}

func TestDetectOutdatedNames(t *testing.T) {
	sys, taxa := detectFixture(t, 1500, true)
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.RecordsProcessed != 1500 {
		t.Fatalf("processed %d", outcome.RecordsProcessed)
	}
	if outcome.DistinctNames != 150 {
		t.Fatalf("distinct = %d, want 150 (post-cleaning)", outcome.DistinctNames)
	}
	if want := len(taxa.OutdatedNames); outcome.Outdated != want {
		t.Fatalf("outdated = %d, want %d", outcome.Outdated, want)
	}
	if outcome.Unknown != 0 {
		t.Fatalf("unknown = %d after cleaning", outcome.Unknown)
	}
	// Every outdated record got a pending update; originals unchanged.
	pending, err := sys.Ledger.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) == 0 || len(pending) != outcome.UpdatesCreated || sys.Ledger.CountUpdates(curation.ReviewPending) != len(pending) {
		t.Fatalf("pending = %d, counted %d, updates created = %d",
			len(pending), sys.Ledger.CountUpdates(curation.ReviewPending), outcome.UpdatesCreated)
	}
	for _, u := range pending {
		rec, err := sys.Records.Get(u.RecordID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Species != u.OriginalName {
			t.Fatalf("original record %s changed: %q vs %q", u.RecordID, rec.Species, u.OriginalName)
		}
		if u.Status == "synonym" && u.UpdatedName == "" {
			t.Fatalf("synonym update %s has no updated name", u.ID)
		}
	}
}

func TestDetectUsesBatchResolver(t *testing.T) {
	sys, taxa := detectFixture(t, 800, true)
	// Serve the checklist over HTTP: the client implements BatchResolver.
	srv := httptest.NewServer(taxonomy.NewService(taxa.Checklist))
	defer srv.Close()
	client := taxonomy.NewClient(srv.URL)
	outcome := detect(t, sys, client)
	if outcome.Outdated != len(taxa.OutdatedNames) {
		t.Fatalf("batch detection outdated = %d, want %d", outcome.Outdated, len(taxa.OutdatedNames))
	}
	// One batch request, not one per name.
	if client.Attempts() != 1 {
		t.Fatalf("client attempts = %d, want 1 (batched)", client.Attempts())
	}
	// Batch failure counts every name as unchecked.
	srv2 := httptest.NewServer(taxonomy.NewService(taxa.Checklist, taxonomy.WithAvailability(0, 1)))
	defer srv2.Close()
	client2 := taxonomy.NewClient(srv2.URL)
	client2.Retries = 1
	client2.Backoff = 0
	outage := detect(t, sys, client2)
	if outage.Unavailable != outage.DistinctNames {
		t.Fatalf("outage batch errors = %d of %d", outage.Unavailable, outage.DistinctNames)
	}
}

// TestDetectBatchesThroughResilientStack is the regression test for the bug
// where wrapping the HTTP client in the caching/resilient decorators hid its
// batch capability, silently degrading detection to one round trip per name.
// The decorated stacks must still batch — and must produce the same numbers
// the bare checklist does.
func TestDetectBatchesThroughResilientStack(t *testing.T) {
	sys, taxa := detectFixture(t, 800, true)
	want := detect(t, sys, taxa.Checklist)

	srv := httptest.NewServer(taxonomy.NewService(taxa.Checklist))
	defer srv.Close()
	stacks := map[string]func(*taxonomy.Client) taxonomy.Resolver{
		"caching": func(c *taxonomy.Client) taxonomy.Resolver { return taxonomy.NewCachingResolver(c, 0) },
		"resilient": func(c *taxonomy.Client) taxonomy.Resolver {
			return taxonomy.NewResilientResolver(c, taxonomy.ResilienceOptions{})
		},
	}
	for stack, wrap := range stacks {
		client := taxonomy.NewClient(srv.URL)
		got := detect(t, sys, wrap(client))
		if client.Attempts() != 1 {
			t.Errorf("%s: decorated stack made %d authority requests, want 1 (batched)", stack, client.Attempts())
		}
		if got.DistinctNames != want.DistinctNames || got.Outdated != want.Outdated ||
			got.Unknown != want.Unknown || got.Unavailable != want.Unavailable {
			t.Errorf("%s: stack (distinct %d, outdated %d, unknown %d, unavailable %d) != checklist (distinct %d, outdated %d, unknown %d, unavailable %d)",
				stack, got.DistinctNames, got.Outdated, got.Unknown, got.Unavailable,
				want.DistinctNames, want.Outdated, want.Unknown, want.Unavailable)
		}
		if !maps.Equal(got.Renames, want.Renames) {
			t.Errorf("%s: renames %v, checklist %v", stack, got.Renames, want.Renames)
		}
	}
}

// downResolver is an authority that never answers.
type downResolver struct{}

func (downResolver) Resolve(context.Context, string) (taxonomy.Resolution, error) {
	return taxonomy.Resolution{}, taxonomy.ErrUnavailable
}

func TestDetectResolverOutage(t *testing.T) {
	sys, _ := detectFixture(t, 300, false)
	outcome := detect(t, sys, downResolver{})
	if outcome.Unavailable != outcome.DistinctNames {
		t.Fatalf("resolver errors = %d of %d", outcome.Unavailable, outcome.DistinctNames)
	}
	if outcome.Outdated != 0 {
		t.Fatal("outage produced detections")
	}
}

// TestDetectCountsAuthorityErrorsAsUnchecked: an authority that answers with
// an error status or an undecodable body has said nothing about any name, so
// every name is unavailable and none is "unknown to the authority" —
// through the single-name path and through both batch-capable decorators.
func TestDetectCountsAuthorityErrorsAsUnchecked(t *testing.T) {
	sys, _ := detectFixture(t, 300, false)
	stubs := map[string]http.HandlerFunc{
		"status-500": func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		},
		"garbage-json": func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(w, "<html>not json</html>")
		},
	}
	stacks := map[string]func(*taxonomy.Client) taxonomy.Resolver{
		"single-name": func(c *taxonomy.Client) taxonomy.Resolver { return struct{ taxonomy.Resolver }{c} },
		"caching":     func(c *taxonomy.Client) taxonomy.Resolver { return taxonomy.NewCachingResolver(c, 0) },
		"resilient": func(c *taxonomy.Client) taxonomy.Resolver {
			return taxonomy.NewResilientResolver(c, taxonomy.ResilienceOptions{})
		},
	}
	for stubName, stub := range stubs {
		for stackName, stack := range stacks {
			t.Run(stubName+"/"+stackName, func(t *testing.T) {
				srv := httptest.NewServer(stub)
				defer srv.Close()
				client := taxonomy.NewClient(srv.URL)
				client.Retries = 0
				outcome := detect(t, sys, stack(client))
				if outcome.Unavailable != outcome.DistinctNames || outcome.Unknown != 0 || outcome.Outdated != 0 {
					t.Fatalf("of %d names: %d unavailable, %d unknown, %d outdated",
						outcome.DistinctNames, outcome.Unavailable, outcome.Unknown, outcome.Outdated)
				}
			})
		}
	}
}
