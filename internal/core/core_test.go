package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/curation"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/opm"
	"repro/internal/quality"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

func TestTableILevels(t *testing.T) {
	rows := TableI()
	if len(rows) != 4 {
		t.Fatalf("Table I has %d rows", len(rows))
	}
	if rows[0].Model != "Provide additional documentation" ||
		rows[0].UseCase != "Publication-related information search" {
		t.Fatalf("row 1 = %+v", rows[0])
	}
	if rows[3].UseCase != "Full potential of the experimental data" {
		t.Fatalf("row 4 = %+v", rows[3])
	}
	if !LevelDocumentation.Valid() || PreservationLevel(0).Valid() || PreservationLevel(5).Valid() {
		t.Fatal("Valid() wrong")
	}
	if !strings.Contains(LevelSimplifiedFormat.String(), "simplified format") {
		t.Fatalf("String = %q", LevelSimplifiedFormat.String())
	}
	if !strings.Contains(PreservationLevel(9).String(), "level(9)") {
		t.Fatal("invalid level String")
	}
}

func TestHoldingAchievedLevel(t *testing.T) {
	cases := []struct {
		h    Holding
		want PreservationLevel
	}{
		{Holding{}, 0},
		{Holding{HasDocumentation: true}, LevelDocumentation},
		{Holding{HasDocumentation: true, HasSimplifiedData: true}, LevelSimplifiedFormat},
		{Holding{HasDocumentation: true, HasSimplifiedData: true, HasAnalysisSoftware: true}, LevelAnalysisSoftware},
		{Holding{HasDocumentation: true, HasSimplifiedData: true, HasAnalysisSoftware: true, HasReconstruction: true}, LevelFullReconstruction},
		// Non-cumulative holdings cap at the highest contiguous level.
		{Holding{HasSimplifiedData: true}, 0},
		{Holding{HasDocumentation: true, HasAnalysisSoftware: true}, LevelDocumentation},
	}
	for i, tc := range cases {
		if got := tc.h.AchievedLevel(); got != tc.want {
			t.Errorf("case %d: level = %v, want %v", i, got, tc.want)
		}
	}
}

// testSystem builds a system over a small calibrated collection.
func testSystem(t *testing.T, records, species int) (*System, *taxonomy.Generated, *fnjv.Collection) {
	t.Helper()
	sys, err := Open(t.TempDir(), Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: species, OutdatedFraction: 0.07, ProvisionalFraction: 0.1, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	gaz := geo.SyntheticGazetteer(15, 6)
	col, err := fnjv.Generate(fnjv.CollectionSpec{
		Records: records, Seed: 5, SyntaxErrorRate: 1e-12, // clean names: calibration test
	}, taxa, gaz, envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	return sys, taxa, col
}

func TestRunDetectionEndToEnd(t *testing.T) {
	sys, taxa, _ := testSystem(t, 1000, 200)
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.RecordsProcessed != 1000 {
		t.Fatalf("records processed = %d", outcome.RecordsProcessed)
	}
	if outcome.DistinctNames != 200 {
		t.Fatalf("distinct = %d", outcome.DistinctNames)
	}
	wantOutdated := len(taxa.OutdatedNames)
	if outcome.Outdated != wantOutdated {
		t.Fatalf("outdated = %d, want %d", outcome.Outdated, wantOutdated)
	}
	if outcome.Unknown != 0 || outcome.Unavailable != 0 {
		t.Fatalf("unknown=%d unavailable=%d", outcome.Unknown, outcome.Unavailable)
	}
	frac := outcome.OutdatedFraction()
	if frac < 0.06 || frac > 0.08 {
		t.Fatalf("outdated fraction = %.3f, want ≈0.07", frac)
	}
	// Renames list matches the planted ground truth.
	if len(outcome.Renames) != wantOutdated {
		t.Fatalf("renames = %d", len(outcome.Renames))
	}
	for old := range outcome.Renames {
		if !taxa.OutdatedNames[old] {
			t.Fatalf("rename of non-outdated name %q", old)
		}
	}
	// The numbers are a direct checklist classification of the collection.
	assertDirectClassification(t, sys, taxa.Checklist, outcome)
	// Updates persisted, one pending per record bearing an outdated name;
	// originals untouched.
	if outcome.UpdatesCreated != sys.Ledger.CountUpdates("") {
		t.Fatalf("updates created = %d, ledger has %d", outcome.UpdatesCreated, sys.Ledger.CountUpdates(""))
	}
	if outcome.UpdatesCreated == 0 {
		t.Fatal("no updates created")
	}
	pending, err := sys.Ledger.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != outcome.UpdatesCreated {
		t.Fatalf("pending = %d, updates created = %d", len(pending), outcome.UpdatesCreated)
	}
	for _, u := range pending {
		rec, err := sys.Records.Get(u.RecordID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Species != u.OriginalName || !taxa.OutdatedNames[u.OriginalName] {
			t.Fatalf("update %s: record %s carries %q, update says %q", u.ID, u.RecordID, rec.Species, u.OriginalName)
		}
		if u.Status == "synonym" && u.UpdatedName == "" {
			t.Fatalf("synonym update %s has no updated name", u.ID)
		}
	}
	// Provenance stored: graph exists and is legal, quality annotations on
	// the authority processor.
	g, err := sys.Provenance.Graph(outcome.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if probs := g.CheckLegality(); len(probs) > 0 {
		t.Fatalf("illegal provenance: %v", probs)
	}
	q, err := sys.Provenance.QualityOfProcess(outcome.RunID, "Catalog_of_life")
	if err != nil {
		t.Fatal(err)
	}
	if q["reputation"] != "1" || q["availability"] != "0.9" {
		t.Fatalf("provenance quality = %v", q)
	}
	// §IV.C numbers: accuracy ≈ 93%, reputation 1, availability 0.9.
	a := outcome.Assessment
	if a.Dimensions[quality.DimAccuracy] < 0.91 || a.Dimensions[quality.DimAccuracy] > 0.95 {
		t.Fatalf("accuracy = %.3f", a.Dimensions[quality.DimAccuracy])
	}
	if a.Dimensions[quality.DimReputation] != 1 || a.Dimensions[quality.DimAvailability] != 0.9 {
		t.Fatalf("dimensions = %v", a.Dimensions)
	}
	if !a.Accepted {
		t.Fatal("assessment rejected")
	}
	// The workflow is in the repository; its two quality annotations are
	// the ones QualityOfProcess read back above.
	if _, err := sys.Workflows.LatestVersion(DetectionWorkflowID); err != nil {
		t.Fatal(err)
	}
	// The engine iterated once per distinct name.
	pn, ok := g.Node("p:" + outcome.RunID + "/Catalog_of_life")
	if !ok || pn.Annotations["iterations"] != "200" {
		t.Fatalf("iterations annotation = %v", pn.Annotations)
	}
}

// assertDirectClassification holds a detection outcome to a direct
// classification of the same collection: every record scanned, every
// distinct species resolved against checklist, the outdated ones renamed.
func assertDirectClassification(t *testing.T, sys *System, checklist *taxonomy.Checklist, outcome *DetectionOutcome) {
	t.Helper()
	distinct, err := sys.Records.DistinctSpecies()
	if err != nil {
		t.Fatal(err)
	}
	renames := map[string]string{}
	unknown := 0
	for name := range distinct {
		res, err := checklist.Resolve(context.Background(), name)
		switch {
		case err != nil:
			unknown++
		case res.Status == taxonomy.StatusSynonym || res.Status == taxonomy.StatusProvisional:
			renames[name] = res.AcceptedName
			if renames[name] == "" {
				renames[name] = "Nomen inquirendum"
			}
		}
	}
	if outcome.RecordsProcessed != sys.Records.Len() || outcome.DistinctNames != len(distinct) ||
		outcome.Outdated != len(renames) || outcome.Unknown != unknown || outcome.Unavailable != 0 {
		t.Fatalf("outcome: %d records, %d distinct, %d outdated, %d unknown, %d unavailable; direct: %d records, %d distinct, %d outdated, %d unknown",
			outcome.RecordsProcessed, outcome.DistinctNames, outcome.Outdated, outcome.Unknown, outcome.Unavailable,
			sys.Records.Len(), len(distinct), len(renames), unknown)
	}
	if len(outcome.Renames) != len(renames) {
		t.Fatalf("outcome renames %d names, direct classification %d", len(outcome.Renames), len(renames))
	}
	for name, to := range renames {
		if outcome.Renames[name] != to {
			t.Errorf("rename %q: outcome %q, checklist %q", name, outcome.Renames[name], to)
		}
	}
}

// TestRunDetectionCountsDirtyNamesUnknown: names the stage-1 cleaner never
// saw stay misspelled, the in-process authority does not know them, and the
// run counts them unknown — never unavailable — next to the outdated ones.
func TestRunDetectionCountsDirtyNamesUnknown(t *testing.T) {
	sys, err := Open(t.TempDir(), Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 150, OutdatedFraction: 0.07, ProvisionalFraction: 0.1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: 300, Seed: 33}, taxa, geo.SyntheticGazetteer(15, 8), envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{SkipLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Unknown == 0 {
		t.Fatal("dirty names did not register as unknown")
	}
	assertDirectClassification(t, sys, taxa.Checklist, outcome)
}

func TestRunDetectionRepeatRunsAccumulate(t *testing.T) {
	sys, taxa, _ := testSystem(t, 300, 80)
	o1, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if o1.RunID == o2.RunID {
		t.Fatal("run IDs collide")
	}
	if o2.WorkflowVersion != o1.WorkflowVersion+1 {
		t.Fatalf("workflow versions = %d then %d", o1.WorkflowVersion, o2.WorkflowVersion)
	}
	runs, err := sys.Provenance.Runs(DetectionWorkflowID)
	if err != nil || len(runs) != 2 {
		t.Fatalf("provenance runs = %d, %v", len(runs), err)
	}
}

// TestKnowledgeEvolutionDegradesQuality reproduces the paper's core claim:
// "knowledge about the world may evolve, and quality decrease with time".
// New taxonomic publications deprecate more names; re-assessment shows lower
// accuracy until curation catches up.
func TestKnowledgeEvolutionDegradesQuality(t *testing.T) {
	sys, taxa, _ := testSystem(t, 500, 100)
	before, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Science marches on: 20 more of the still-accepted historical names
	// are deprecated.
	when := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	deprecated := 0
	for _, n := range taxa.HistoricalNames {
		if deprecated == 20 {
			break
		}
		if taxa.OutdatedNames[n] {
			continue
		}
		repl := &taxonomy.Taxon{
			ID:     "NEW-" + n,
			Name:   taxonomy.Name{Genus: "Novogenus", Epithet: "n" + string(rune('a'+deprecated%26)) + string(rune('a'+deprecated/26))},
			Status: taxonomy.StatusAccepted,
		}
		if err := taxa.Checklist.Deprecate(n, repl, when, "New revision (2014)"); err != nil {
			t.Fatal(err)
		}
		deprecated++
	}
	after, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Outdated != before.Outdated+20 {
		t.Fatalf("outdated after evolution = %d, want %d", after.Outdated, before.Outdated+20)
	}
	accBefore := before.Assessment.Dimensions[quality.DimAccuracy]
	accAfter := after.Assessment.Dimensions[quality.DimAccuracy]
	if accAfter >= accBefore {
		t.Fatalf("accuracy did not degrade: %.3f -> %.3f", accBefore, accAfter)
	}
	// Curation catches up: approve the renames; curated names now resolve
	// as accepted.
	if _, err := curation.Review(sys.Ledger, func(*curation.NameUpdate) curation.Verdict { return curation.Approve }, "biologist", when); err != nil {
		t.Fatal(err)
	}
	var healed, total int
	err = sys.Records.Scan(func(r *fnjv.Record) bool {
		name, err := curation.CuratedName(sys.Ledger, r.ID, r.Species)
		if err != nil {
			t.Fatal(err)
		}
		total++
		res, err := taxa.Checklist.Resolve(context.Background(), name)
		if err == nil && res.Status == taxonomy.StatusAccepted {
			healed++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// All synonym-bearing records are healed; provisional ones cannot be.
	if frac := float64(healed) / float64(total); frac < 0.97 {
		t.Fatalf("only %.3f of curated names accepted", frac)
	}
}

func TestRunDetectionSurvivesPartialOutage(t *testing.T) {
	sys, taxa, _ := testSystem(t, 300, 80)
	// An authority that fails on every 5th name: the workflow completes and
	// the summary counts unavailable names.
	flaky := &countingResolver{inner: taxa.Checklist, failEvery: 5}
	outcome, err := sys.RunDetection(context.Background(), flaky, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Unavailable == 0 {
		t.Fatal("no unavailable names counted")
	}
	if outcome.DistinctNames != 80 {
		t.Fatalf("distinct = %d", outcome.DistinctNames)
	}
	// Accuracy excludes unchecked names from the denominator.
	if outcome.Assessment.Dimensions[quality.DimAccuracy] == 0 {
		t.Fatal("accuracy collapsed under partial outage")
	}
}

type countingResolver struct {
	inner     taxonomy.Resolver
	calls     int
	failEvery int
}

func (c *countingResolver) Resolve(ctx context.Context, name string) (taxonomy.Resolution, error) {
	c.calls++
	if c.failEvery > 0 && c.calls%c.failEvery == 0 {
		return taxonomy.Resolution{Query: name, Status: taxonomy.StatusUnknown}, taxonomy.ErrUnavailable
	}
	return c.inner.Resolve(ctx, name)
}

func TestDetectionWorkflowIsValidAndSerializable(t *testing.T) {
	def := DetectionWorkflow()
	blob, err := AnnotatedDetectionWorkflow("1", "0.9", "expert", time.Date(2013, 11, 12, 19, 58, 9, 767000000, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	xmlBlob, err := workflowMarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	s := string(xmlBlob)
	if !strings.Contains(s, "Catalog_of_life") || !strings.Contains(s, "Q(reputation): 1;") {
		t.Fatalf("serialized detection workflow missing Listing 1 content")
	}
	_ = def
}

func TestOPMExportOfRun(t *testing.T) {
	sys, taxa, _ := testSystem(t, 300, 80)
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.Provenance.Graph(outcome.RunID)
	if err != nil {
		t.Fatal(err)
	}
	back, err := opm.UnmarshalXML(opm.MarshalXML(g))
	if err != nil {
		t.Fatal(err)
	}
	if back.NodeCount() != g.NodeCount() {
		t.Fatal("OPM export lossy")
	}
}
