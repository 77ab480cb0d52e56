// Speciescuration reproduces the full Fig. 2 case study at paper scale:
// a dirty legacy collection goes through stage-1 curation (clean, geocode,
// gap-fill), outdated-name detection against an unreliable HTTP Catalogue of
// Life, biologist review, and ends with the curated-name view — while the
// original records stay byte-for-byte unchanged.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/curation"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "speciescuration-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sys, err := core.Open(dir, core.Options{Sync: storage.SyncNever})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// The paper's world: 11 898 records, 1 929 distinct names, 7% outdated.
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 1929, OutdatedFraction: 134.0 / 1929.0, ProvisionalFraction: 0.05, Seed: 2014,
	})
	if err != nil {
		log.Fatal(err)
	}
	gaz := geo.SyntheticGazetteer(40, 2014)
	env := envsource.NewSimulator()
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: 11898, Seed: 2014}, taxa, gaz, env)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		log.Fatal(err)
	}
	stats, _ := sys.Records.Stats()
	fmt.Printf("legacy collection loaded: %d records, %d distinct raw names, %.1f%% with coordinates\n\n",
		stats.Records, stats.DistinctSpecies, 100*float64(stats.WithCoordinates)/float64(stats.Records))

	// --- Stage 1 ---
	cl := &curation.Cleaner{Checklist: taxa.Checklist, Ledger: sys.Ledger}
	cr, err := cl.Clean(sys.Records)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 1 / clean:   %d repaired, %d flagged for curators\n", cr.Repaired, cr.FlaggedOnly)

	gc := &curation.Geocoder{Gazetteer: gaz, Ledger: sys.Ledger}
	gr, err := gc.Geocode(sys.Records)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 1 / geocode: %d geocoded, %d ambiguous\n", gr.Geocoded, gr.Ambiguous)

	gf := &curation.GapFiller{Source: env, Ledger: sys.Ledger}
	fr, err := gf.Fill(sys.Records)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 1 / gapfill: %d environmental fields completed\n\n", fr.Filled)

	// --- Detection against a flaky HTTP authority (availability 0.9) ---
	server := httptest.NewServer(taxonomy.NewService(taxa.Checklist,
		taxonomy.WithAvailability(0.9, 7)))
	defer server.Close()
	client := taxonomy.NewClient(server.URL)
	client.Retries = 6
	client.Backoff = 0

	outcome, err := sys.RunDetection(context.Background(), client, core.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detection (run %s):\n", outcome.RunID)
	fmt.Printf("  distinct species names analyzed: %d\n", outcome.DistinctNames)
	fmt.Printf("  records processed:               %d\n", outcome.RecordsProcessed)
	fmt.Printf("  outdated species names:          %d (%.0f%%)\n", outcome.Outdated, 100*outcome.OutdatedFraction())
	fmt.Printf("  authority observed availability: %.3f\n\n", client.ObservedAvailability())

	// --- Biologist review ---
	rr, err := curation.Review(sys.Ledger, curation.DefaultCurator, "biologist", time.Now())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("review: %d approved, %d rejected, %d deferred\n\n", rr.Approved, rr.Rejected, rr.Deferred)

	// --- Originals unchanged; curated view resolves the new names ---
	shown := 0
	err = sys.Records.Scan(func(r *fnjv.Record) bool {
		curated, err := curation.CuratedName(sys.Ledger, r.ID, r.Species)
		if err != nil {
			log.Fatal(err)
		}
		if curated != r.Species && shown < 5 {
			hist, _ := sys.Ledger.History(r.ID)
			fmt.Printf("%s\n  stored (historical): %s\n  curated (current):   %s\n  history entries:     %d\n",
				r.ID, r.Species, curated, len(hist))
			shown++
		}
		return shown < 5
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal curation history entries: %d\n", sys.Ledger.HistoryCount())
}
