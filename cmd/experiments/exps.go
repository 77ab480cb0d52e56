package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/curation"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/taxonomy"
	"repro/internal/workflow"
)

// E1 — Table I: the four DPHEP preservation models.
func runTableI(e *environment) error {
	fmt.Printf("%-5s %-68s %s\n", "level", "preservation model", "use case")
	for _, row := range core.TableI() {
		fmt.Printf("%-5d %-68s %s\n", int(row.Level), row.Model, row.UseCase)
	}
	fmt.Println("\nThis system implements level 1: curated documentation (metadata) preservation.")
	h := core.Holding{HasDocumentation: true}
	fmt.Printf("collection holding achieves: %s\n", h.AchievedLevel())
	return nil
}

// E2 — Table II: the FNJV metadata field groups.
func runTableII(e *environment) error {
	e.build()
	groups := map[int]string{
		1: "what was observed (species identification)",
		2: "observation conditions (when / where / environment)",
		3: "recording features and devices (how)",
	}
	tableII := fnjv.TableIIGroups()
	total := 0
	for row := 1; row <= 3; row++ {
		fields := tableII[row]
		total += len(fields)
		fmt.Printf("row %d — %s:\n    %v\n", row, groups[row], fields)
	}
	compareLine("published metadata fields (subset)", "22 of 51", fmt.Sprintf("%d modeled (schema has %d fields)", total, len(fnjv.FieldNames())))

	// Schema validation sanity: stored records round-trip.
	n := 0
	err := e.sys.Records.Scan(func(_ *fnjv.Record) bool { n++; return n < 100 })
	if err != nil {
		return err
	}
	fmt.Printf("  spot-checked %d records against the schema: OK\n", n)
	return nil
}

// E4 — Figure 2: the prototype's detection numbers.
func runFigure2(e *environment) error {
	e.build()
	start := time.Now()
	report, err := e.sys.RunDetection(context.Background(), e.taxa.Checklist, core.RunOptions{SkipLedger: true, Parallel: e.parallel})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	compareLine("records in collection", fmt.Sprintf("%d", paperRecords), fmt.Sprintf("%d", report.RecordsProcessed))
	compareLine("distinct species names analyzed", fmt.Sprintf("%d", paperSpecies), fmt.Sprintf("%d", report.DistinctNames))
	compareLine("outdated species names", fmt.Sprintf("%d (7%% of species)", paperOutdated),
		fmt.Sprintf("%d (%.0f%%)", report.Outdated, 100*report.OutdatedFraction()))
	compareLine("verification time", "a few minutes", elapsed.Round(time.Millisecond).String())
	fmt.Println("\nfirst 10 updated names:")
	names := sortedKeys(report.Renames)
	for i, n := range names {
		if i == 10 {
			break
		}
		fmt.Printf("    %-36s -> %s\n", n, report.Renames[n])
	}
	return nil
}

// perName is a resolver stripped to its one-name-per-request protocol.
type perName struct{ taxonomy.Resolver }

// E3 — Figure 1/3: the full architecture instance — annotated workflow over
// an HTTP Catalogue-of-Life with 0.9 availability, provenance capture,
// ledger updates and quality assessment.
func runFigure3(e *environment) error {
	e.build()
	svc := taxonomy.NewService(e.taxa.Checklist,
		taxonomy.WithAvailability(0.9, e.seed+7))
	server := httptest.NewServer(svc)
	defer server.Close()
	client := taxonomy.NewClient(server.URL)
	client.Retries = 6
	client.Backoff = 0
	// Singleflight cache in front of the slow authority, engine parallelism
	// from -parallel. The client's batch endpoint stays hidden: the observed
	// availability printed below is an estimate from the client's own request
	// log, and an estimate needs a sample per name — ~2 000 requests as in the
	// paper's prototype, not the 8 batch requests they would otherwise share.
	cache := taxonomy.NewCachingResolver(perName{client}, 0)

	outcome, err := e.sys.RunDetection(context.Background(), cache, core.RunOptions{
		Reputation:   "1",
		Availability: "0.9",
		Author:       "expert",
		Parallel:     e.parallel,
	})
	if err != nil {
		return err
	}
	fmt.Println("architecture instance (Fig. 3) executed:")
	fmt.Printf("  1. expert added quality metadata to the workflow        -> version %d published\n", outcome.WorkflowVersion)
	fmt.Printf("  2. workflow received FNJV sound metadata as input       -> %d distinct names\n", outcome.DistinctNames)
	fmt.Printf("  3. checked against Catalogue of Life (HTTP, avail 0.9)  -> %d outdated, %d unavailable after retries\n",
		outcome.Outdated, outcome.Unavailable)
	fmt.Printf("  4. Provenance Manager stored run                        -> %s\n", outcome.RunID)
	fmt.Printf("  5. output: summary of updated species names             -> %d per-record updates (pending review)\n", outcome.UpdatesCreated)

	g, err := e.sys.Provenance.Graph(outcome.RunID)
	if err != nil {
		return err
	}
	fmt.Printf("\nprovenance graph: %d nodes, %d edges, legality violations: %d\n",
		g.NodeCount(), g.EdgeCount(), len(g.CheckLegality()))
	fmt.Printf("authority client observed availability: %.3f (injected 0.9)\n", client.ObservedAvailability())

	em := outcome.EngineMetrics
	hits, misses := cache.Stats()
	fmt.Printf("engine: %d invocations, %d iteration elements, peak in-flight %d (budget %d)\n",
		em.Invocations, em.ElementsDispatched, em.PeakInFlight, e.parallel)
	fmt.Printf("resolver cache: %d hits, %d misses, %d coalesced in-flight lookups\n",
		hits, misses, cache.Coalesced())
	pw := outcome.ProvenanceWriter
	fmt.Printf("provenance writer: %d deltas in %d batches (avg %.1f, max %d), flush max %s, peak queue %d, blocked emits %d\n",
		pw.Flushed, pw.Batches, pw.AvgBatch(), pw.MaxBatch,
		pw.FlushMax.Round(time.Microsecond), pw.PeakQueue, pw.BlockedEmits)
	// Writer telemetry is an observation like any other (§II.C): persist it
	// so dashboards query flush latency the same way they query sounds.
	odb, err := obs.Open(e.sys.DB)
	if err != nil {
		return err
	}
	if err := odb.Put(obs.FromRuntimeMetrics("provenance.batchwriter", time.Now(), pw.Counters())); err != nil {
		return err
	}

	rr, err := curation.Review(e.sys.Ledger, curation.DefaultCurator, "biologist", time.Now())
	if err != nil {
		return err
	}
	fmt.Printf("curator review: %d approved, %d rejected, %d deferred (of %d)\n",
		rr.Approved, rr.Rejected, rr.Deferred, rr.Reviewed)
	return nil
}

// E5 — Listing 1: the annotated workflow specification.
func runListing1(e *environment) error {
	def, err := core.AnnotatedDetectionWorkflow("1", "0.9", "expert",
		time.Date(2013, 11, 12, 19, 58, 9, 767000000, time.UTC))
	if err != nil {
		return err
	}
	blob, err := workflow.MarshalXML(def)
	if err != nil {
		return err
	}
	// Round-trip check.
	back, err := workflow.UnmarshalXML(blob)
	if err != nil {
		return err
	}
	p, _ := back.Processor("Catalog_of_life")
	q := workflow.QualityAnnotations(p.Annotations)
	fmt.Printf("excerpt of the serialized, adapter-annotated workflow:\n\n")
	printExcerpt(string(blob), "Catalog_of_life", 18)
	compareLine("Q(reputation)", "1", q["reputation"])
	compareLine("Q(availability)", "0.9", q["availability"])
	return nil
}

// E6 — §IV.C: the quality numbers the Data Quality Manager reports.
func runQualityIVC(e *environment) error {
	e.build()
	outcome, err := e.sys.RunDetection(context.Background(), e.taxa.Checklist, core.RunOptions{Parallel: e.parallel})
	if err != nil {
		return err
	}
	a := outcome.Assessment
	fmt.Println(quality.Report(a))
	compareLine("species-name accuracy", "93%", fmt.Sprintf("%.1f%%", 100*a.Dimensions[quality.DimAccuracy]))
	compareLine("authority reputation", "1", fmt.Sprintf("%.0f", a.Dimensions[quality.DimReputation]))
	compareLine("authority availability", "0.9", fmt.Sprintf("%.1f", a.Dimensions[quality.DimAvailability]))
	return nil
}

// E7 — §IV.B timing: automated minutes vs manual days-to-months.
func runTiming(e *environment) error {
	e.build()
	start := time.Now()
	report, err := e.sys.RunDetection(context.Background(), e.taxa.Checklist, core.RunOptions{SkipLedger: true, Parallel: e.parallel})
	if err != nil {
		return err
	}
	automated := time.Since(start)

	// Manual baseline model: an expert verifies one species name against
	// the literature in ~15 minutes of focused work, 6 h/day — the paper
	// reports "days to months, depending on the species chosen".
	const perName = 15 * time.Minute
	const workday = 6 * time.Hour
	manual := time.Duration(report.DistinctNames) * perName
	days := float64(manual) / float64(workday)
	fmt.Printf("distinct names verified: %d\n", report.DistinctNames)
	compareLine("manual verification", "days to months", fmt.Sprintf("%.0f expert-days (modeled @15min/name)", days))
	compareLine("automated verification", "a few minutes", automated.Round(time.Millisecond).String())
	speedup := float64(manual) / float64(automated)
	fmt.Printf("  speedup: %.0fx\n", speedup)
	return nil
}

// E8 — stage-1 curation over a fully dirty collection.
func runStage1(e *environment) error {
	store, col, db, err := e.freshDirtyStore()
	if err != nil {
		return err
	}
	defer db.Close()
	led, err := curation.NewLedger(db)
	if err != nil {
		return err
	}
	before, err := store.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("dirty collection: %d records, %d with coordinates, %d with env fields\n",
		before.Records, before.WithCoordinates, before.WithEnvFields)

	cl := &curation.Cleaner{Checklist: e.taxa.Checklist, Ledger: led}
	cr, err := cl.Clean(store)
	if err != nil {
		return err
	}
	fmt.Printf("step 1 (clean):   %d checked, %d repaired, %d flagged (planted syntax errors: %d, domain errors: %d)\n",
		cr.RecordsChecked, cr.Repaired, cr.FlaggedOnly, len(col.Truth.SyntaxErrors), len(col.Truth.DomainErrors))

	g := &curation.Geocoder{Gazetteer: e.gaz, Ledger: led}
	gr, err := g.Geocode(store)
	if err != nil {
		return err
	}
	fmt.Printf("step 2 (geocode): %d geocoded, %d ambiguous (curator queue), %d unknown (had %d, missing %d)\n",
		gr.Geocoded, gr.Ambiguous, gr.Unknown, gr.AlreadyHadCoord, col.Truth.MissingCoords)

	gf := &curation.GapFiller{Source: e.env, Ledger: led}
	fr, err := gf.Fill(store)
	if err != nil {
		return err
	}
	after, err := store.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("step 3 (gapfill): %d filled, %d still lacking location (missing env before: %d)\n",
		fr.Filled, fr.SkippedNoLocation, col.Truth.MissingEnv)
	fmt.Printf("\ncompleteness:  coordinates %.1f%% -> %.1f%%;  env fields %.1f%% -> %.1f%%\n",
		pct(before.WithCoordinates, before.Records), pct(after.WithCoordinates, after.Records),
		pct(before.WithEnvFields, before.Records), pct(after.WithEnvFields, after.Records))
	fmt.Printf("curation history entries logged: %d\n", led.HistoryCount())
	return nil
}

// E9 — stage-2 spatial analysis.
func runStage2(e *environment) error {
	store, col, db, err := e.freshDirtyStore()
	if err != nil {
		return err
	}
	defer db.Close()
	// Stage 1 first (the paper's order): clean + geocode.
	if _, err := (&curation.Cleaner{Checklist: e.taxa.Checklist}).Clean(store); err != nil {
		return err
	}
	if _, err := (&curation.Geocoder{Gazetteer: e.gaz}).Geocode(store); err != nil {
		return err
	}
	aud := &curation.SpatialAuditor{Params: geo.OutlierParams{}}
	report, err := aud.Audit(store)
	if err != nil {
		return err
	}
	flagged := map[string]bool{}
	for _, o := range report.Flagged {
		flagged[o.RecordID] = true
	}
	caught := 0
	for id := range col.Truth.Misplaced {
		if flagged[id] {
			caught++
		}
	}
	fmt.Printf("records with coordinates: %d; species tested: %d\n", report.RecordsWithCoords, report.SpeciesTested)
	fmt.Printf("flagged as spatial anomalies: %d (planted misidentifications: %d, caught: %d — %.0f%% recall)\n",
		len(report.Flagged), len(col.Truth.Misplaced), caught, pct(caught, len(col.Truth.Misplaced)))
	fmt.Printf("elapsed: %s\n", report.Elapsed.Round(time.Millisecond))
	fmt.Println("\ntop 5 anomalies (candidates for 'misidentified species or new behaviour'):")
	for i, o := range report.Flagged {
		if i == 5 {
			break
		}
		fmt.Printf("  %-12s %-36s %6.0f km from medoid (threshold %.0f km)\n",
			o.RecordID, o.Species, o.DistanceKm, o.ThresholdKm)
	}
	return nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func printExcerpt(s, anchor string, lines int) {
	idx := strings.Index(s, anchor)
	if idx < 0 {
		fmt.Println(s)
		return
	}
	// Back up to the start of the line.
	start := idx
	for start > 0 && s[start-1] != '\n' {
		start--
	}
	end := start
	for n := 0; n < lines && end < len(s); end++ {
		if s[end] == '\n' {
			n++
		}
	}
	fmt.Println(s[start:end])
}
