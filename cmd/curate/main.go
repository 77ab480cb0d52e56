// Command curate runs the full curation pipeline against a collection
// database on disk: generate (once), stage-1 clean/geocode/gapfill, detect
// outdated species names against an authority (in-process or remote
// colserver), review, and report.
//
// Usage:
//
//	curate -data ./fnjv-data [-records 11898] [-species 1929] [-authority http://localhost:9090] [-step all]
//
// Steps: generate, stage1, detect, review, stage2, report, all.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/curation"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/quality"
	"repro/internal/report"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

func main() {
	var (
		data      = flag.String("data", "./fnjv-data", "database directory")
		records   = flag.Int("records", 11898, "records to generate")
		species   = flag.Int("species", 1929, "distinct species names")
		authority = flag.String("authority", "", "URL of a colserver (empty = in-process checklist)")
		step      = flag.String("step", "all", "generate|stage1|detect|review|stage2|report|all")
		seed      = flag.Int64("seed", 2014, "PRNG seed")
		reportOut = flag.String("report-md", "", "write a Markdown curation report to this file at the end")
	)
	flag.Parse()
	log.SetFlags(0)

	sys, err := core.Open(*data, core.Options{Sync: storage.SyncOnClose})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species:             *species,
		OutdatedFraction:    134.0 / 1929.0,
		ProvisionalFraction: 0.05,
		Seed:                *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	gaz := geo.SyntheticGazetteer(40, *seed+1)
	env := envsource.NewSimulator()

	var resolver taxonomy.Resolver = taxa.Checklist
	if *authority != "" {
		client := taxonomy.NewClient(*authority)
		client.Retries = 6
		resolver = client
	}

	var lastOutcome *core.DetectionOutcome
	steps := strings.Split(*step, ",")
	if *step == "all" {
		steps = []string{"generate", "stage1", "detect", "review", "stage2", "report"}
	}
	for _, st := range steps {
		switch st {
		case "generate":
			if sys.Records.Len() > 0 {
				log.Printf("generate: collection already has %d records, skipping", sys.Records.Len())
				continue
			}
			col, err := fnjv.Generate(fnjv.CollectionSpec{Records: *records, Seed: *seed + 2}, taxa, gaz, env)
			if err != nil {
				log.Fatal(err)
			}
			if err := sys.Records.PutAll(col.Records); err != nil {
				log.Fatal(err)
			}
			log.Printf("generate: %d records over %d species", len(col.Records), col.DistinctSpecies)

		case "stage1":
			cr, err := (&curation.Cleaner{Checklist: taxa.Checklist, Ledger: sys.Ledger}).Clean(sys.Records)
			if err != nil {
				log.Fatal(err)
			}
			gr, err := (&curation.Geocoder{Gazetteer: gaz, Ledger: sys.Ledger}).Geocode(sys.Records)
			if err != nil {
				log.Fatal(err)
			}
			fr, err := (&curation.GapFiller{Source: env, Ledger: sys.Ledger}).Fill(sys.Records)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("stage1: %d cleaned, %d geocoded (%d ambiguous), %d gap-filled",
				cr.Repaired, gr.Geocoded, gr.Ambiguous, fr.Filled)

		case "detect":
			outcome, err := sys.RunDetection(context.Background(), resolver, core.RunOptions{})
			if err != nil {
				log.Fatal(err)
			}
			lastOutcome = outcome
			fmt.Printf("detect (run %s): %d distinct names, %d outdated (%.0f%%), %d updates pending\n",
				outcome.RunID, outcome.DistinctNames, outcome.Outdated,
				100*outcome.OutdatedFraction(), outcome.UpdatesCreated)
			fmt.Println(quality.Report(outcome.Assessment))

		case "review":
			rr, err := curation.Review(sys.Ledger, curation.DefaultCurator, "biologist", time.Now())
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("review: %d approved, %d rejected, %d deferred", rr.Approved, rr.Rejected, rr.Deferred)

		case "stage2":
			rep, err := (&curation.SpatialAuditor{Ledger: sys.Ledger}).Audit(sys.Records)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("stage2: %d anomalies flagged across %d species", len(rep.Flagged), rep.SpeciesTested)

		case "report":
			stats, err := sys.Records.Stats()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("collection: %d records, %d distinct names, %.1f%% with coordinates, %.1f%% with env fields\n",
				stats.Records, stats.DistinctSpecies,
				100*float64(stats.WithCoordinates)/float64(stats.Records),
				100*float64(stats.WithEnvFields)/float64(stats.Records))
			fmt.Printf("ledger: %d updates (%d pending, %d approved), %d history entries\n",
				sys.Ledger.CountUpdates(""), sys.Ledger.CountUpdates(curation.ReviewPending),
				sys.Ledger.CountUpdates(curation.ReviewApproved), sys.Ledger.HistoryCount())
			runs, err := sys.Provenance.AllRuns()
			if err != nil {
				log.Fatal(err)
			}
			for _, info := range runs {
				fmt.Printf("run %s: %s %s (%s)\n", info.RunID, info.WorkflowName, info.Status,
					info.FinishedAt.Sub(info.StartedAt).Round(time.Millisecond))
			}

		default:
			log.Fatalf("unknown step %q", st)
		}
	}

	if *reportOut != "" {
		now := time.Now()
		b := report.New("FNJV curation report", now)
		if a, facts, err := sys.AssessCollection(taxa.Checklist, now, now); err == nil {
			b.AddFacts(facts).AddAssessment("Collection health", a)
		}
		if lastOutcome != nil {
			b.AddDetection(lastOutcome).
				AddAssessment("Species-name quality (§IV.C)", lastOutcome.Assessment)
		}
		if err := os.WriteFile(*reportOut, []byte(b.Markdown()), 0o644); err != nil {
			log.Fatalf("write report: %v", err)
		}
		log.Printf("report written to %s", *reportOut)
	}
}
