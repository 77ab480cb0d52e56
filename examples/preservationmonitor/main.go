// Preservationmonitor demonstrates the paper's conclusion operationally:
// "quality assessment must be a continuous task, as long as users deem the
// data to be useful". A monitor re-assesses the collection while taxonomic
// knowledge evolves; degradation raises alerts; a curation pass heals the
// curated view; and the whole story is written out as a Markdown curation
// report for the experts.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/curation"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/report"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "preservationmonitor-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sys, err := core.Open(dir, core.Options{Sync: storage.SyncNever})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 300, OutdatedFraction: 0.07, ProvisionalFraction: 0.05, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: 1500, Seed: 99, SyntaxErrorRate: 1e-12},
		taxa, geo.SyntheticGazetteer(15, 99), envsource.NewSimulator())
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		log.Fatal(err)
	}

	mon := core.NewMonitor(sys, taxa.Checklist, core.RunOptions{})

	fmt.Println("epoch  accuracy  outdated  alerts")
	for epoch := 0; epoch < 5; epoch++ {
		if epoch > 0 {
			// Taxonomy evolves: 8 revisions per epoch.
			revised := 0
			for _, name := range taxa.HistoricalNames {
				if revised == 8 {
					break
				}
				res, err := taxa.Checklist.Resolve(context.Background(), name)
				if err != nil || res.Status != taxonomy.StatusAccepted {
					continue
				}
				repl := &taxonomy.Taxon{
					ID:     fmt.Sprintf("REV-%d-%d", epoch, revised),
					Name:   taxonomy.Name{Genus: "Revisus", Epithet: fmt.Sprintf("e%dn%d", epoch, revised)},
					Status: taxonomy.StatusAccepted,
				}
				if err := taxa.Checklist.Deprecate(name, repl,
					time.Date(2014+epoch, 1, 1, 0, 0, 0, 0, time.UTC),
					fmt.Sprintf("Revision %d", epoch)); err != nil {
					log.Fatal(err)
				}
				revised++
			}
		}
		sample, alerts, err := mon.ReassessOnce(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		alertText := "-"
		for _, a := range alerts {
			alertText = string(a.Kind) + ": " + a.Detail
		}
		fmt.Printf("%-6d %-9.4f %-9d %s\n", epoch, sample.Accuracy, sample.Outdated, alertText)
	}

	// Curators catch up on the backlog.
	rr, err := curation.Review(sys.Ledger, curation.DefaultCurator, "biologist", time.Now())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncuration pass: %d approved, %d deferred\n", rr.Approved, rr.Deferred)

	// The monitor's series is every completed detection run, so read it
	// before the report's own detection adds one.
	history, err := mon.History()
	if err != nil {
		log.Fatal(err)
	}
	first, last, delta, n, err := mon.Trend()
	if err != nil {
		log.Fatal(err)
	}

	// Final detection for the report.
	lastOutcome, err := sys.RunDetection(context.Background(), taxa.Checklist, core.RunOptions{SkipLedger: true})
	if err != nil {
		log.Fatal(err)
	}
	now := time.Now()
	health, facts, err := sys.AssessCollection(taxa.Checklist, now, now)
	if err != nil {
		log.Fatal(err)
	}
	md := report.New("FNJV preservation monitoring report", now).
		AddFacts(facts).
		AddTrend(history).
		AddDetection(lastOutcome).
		AddAssessment("Species-name quality", lastOutcome.Assessment).
		AddAssessment("Collection health", health).
		Markdown()
	out := "preservation-report.md"
	if err := os.WriteFile(out, []byte(md), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trend: %.4f -> %.4f (Δ %+.4f over %d samples)\n", first, last, delta, n)
	fmt.Printf("markdown report written to %s (%d bytes)\n", out, len(md))
}
