package core

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/curation"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/quality"
	"repro/internal/taxonomy"
)

// TestPaperScaleEndToEnd reproduces the full Fig. 2/Fig. 3 numbers at the
// paper's exact scale — 11 898 records, 1 929 distinct names — over an HTTP
// Catalogue of Life with 0.9 availability, through a caching resolver, with
// stage-1 cleaning first, finishing with review and collection assessment.
func TestPaperScaleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	sys, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species:             1929,
		OutdatedFraction:    134.0 / 1929.0,
		ProvisionalFraction: 0.05,
		Seed:                2014,
	})
	if err != nil {
		t.Fatal(err)
	}
	gaz := geo.SyntheticGazetteer(40, 2015)
	env := envsource.NewSimulator()
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: 11898, Seed: 2016}, taxa, gaz, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}

	// Stage 1 first (dirty names must be repaired before Fig. 2 detection).
	curateStage1(t, sys.Records, taxa.Checklist, gaz, env, sys.Ledger)

	// The authority over HTTP at the paper's availability, behind a cache.
	server := httptest.NewServer(taxonomy.NewService(taxa.Checklist,
		taxonomy.WithAvailability(0.9, 99)))
	defer server.Close()
	client := taxonomy.NewClient(server.URL)
	client.Retries = 8
	client.Backoff = 0
	resolver := taxonomy.NewCachingResolver(client, 0)

	outcome, err := sys.RunDetection(context.Background(), resolver, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 2 headline numbers.
	if outcome.RecordsProcessed != 11898 {
		t.Fatalf("records processed = %d", outcome.RecordsProcessed)
	}
	if outcome.DistinctNames != 1929 {
		t.Fatalf("distinct names = %d", outcome.DistinctNames)
	}
	if outcome.Outdated != 134 {
		t.Fatalf("outdated = %d, want 134", outcome.Outdated)
	}
	if frac := outcome.OutdatedFraction(); frac < 0.066 || frac > 0.073 {
		t.Fatalf("outdated fraction = %.4f, want ≈0.07", frac)
	}
	if outcome.Unavailable != 0 {
		t.Fatalf("names left unchecked after retries: %d", outcome.Unavailable)
	}

	// §IV.C quality numbers.
	acc := outcome.Assessment.Dimensions[quality.DimAccuracy]
	if acc < 0.925 || acc > 0.935 {
		t.Fatalf("accuracy = %.4f, want ≈0.93", acc)
	}
	if outcome.Assessment.Dimensions[quality.DimReputation] != 1 ||
		outcome.Assessment.Dimensions[quality.DimAvailability] != 0.9 {
		t.Fatalf("dimensions = %v", outcome.Assessment.Dimensions)
	}

	// The client actually observed ≈0.9 availability.
	if av := client.ObservedAvailability(); av < 0.86 || av > 0.94 {
		t.Fatalf("observed availability = %.3f", av)
	}

	// Review closes the loop; provisional names stay deferred.
	rr, err := curation.Review(sys.Ledger, curation.DefaultCurator, "biologist", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Approved == 0 || rr.Approved+rr.Deferred+rr.Rejected != rr.Reviewed {
		t.Fatalf("review = %+v", rr)
	}

	// Collection assessment after full curation is healthy.
	a, facts, err := sys.AssessCollection(taxa.Checklist, time.Now(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if facts.Records != 11898 {
		t.Fatalf("facts = %+v", facts)
	}
	if a.Dimensions[quality.DimCompleteness] < 0.9 {
		t.Fatalf("post-curation completeness = %.3f", a.Dimensions[quality.DimCompleteness])
	}
	// Timing sanity: the whole thing runs in well under the paper's "a few
	// minutes".
	if outcome.Elapsed > 2*time.Minute {
		t.Fatalf("detection took %s", outcome.Elapsed)
	}
}
