package report

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curation"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

func buildEverything(t *testing.T) (*core.System, *taxonomy.Generated, *core.DetectionOutcome, []core.QualitySample) {
	t.Helper()
	sys, err := core.Open(t.TempDir(), core.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 100, OutdatedFraction: 0.07, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	gaz := geo.SyntheticGazetteer(10, 13)
	env := envsource.NewSimulator()
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: 500, Seed: 13}, taxa, gaz, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	// Stage-1 curation first, so the detection sees canonical names.
	if _, err := (&curation.Cleaner{Checklist: taxa.Checklist, Ledger: sys.Ledger}).Clean(sys.Records); err != nil {
		t.Fatal(err)
	}
	if _, err := (&curation.Geocoder{Gazetteer: gaz, Ledger: sys.Ledger}).Geocode(sys.Records); err != nil {
		t.Fatal(err)
	}
	if _, err := (&curation.GapFiller{Source: env, Ledger: sys.Ledger}).Fill(sys.Records); err != nil {
		t.Fatal(err)
	}
	mon := core.NewMonitor(sys, taxa.Checklist, core.RunOptions{SkipLedger: true})
	if _, _, err := mon.ReassessOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := mon.History()
	if err != nil {
		t.Fatal(err)
	}
	return sys, taxa, outcome, samples
}

func TestFullReport(t *testing.T) {
	sys, taxa, outcome, samples := buildEverything(t)
	now := time.Date(2014, 1, 15, 10, 0, 0, 0, time.UTC)
	a, facts, err := sys.AssessCollection(taxa.Checklist, now.AddDate(0, -3, 0), now)
	if err != nil {
		t.Fatal(err)
	}
	md := New("FNJV curation report", now).
		AddFacts(facts).
		AddDetection(outcome).
		AddAssessment("Species-name quality (§IV.C)", outcome.Assessment).
		AddAssessment("Collection health", a).
		AddTrend(samples).
		Markdown()

	for _, want := range []string{
		"# FNJV curation report",
		"_Generated 2014-01-15",
		"## Collection facts",
		"| records | 500 |",
		"## Outdated species name detection",
		"| distinct species names analyzed | 100 |",
		"### Updated species names",
		"## Species-name quality (§IV.C)",
		"| accuracy |",
		"utility **0.9",
		"(accept)",
		"## Collection health",
		"| completeness |",
		"## Quality over time",
		"Net accuracy change",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Markdown tables are well formed: every table row line has balanced pipes.
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "|") && !strings.HasSuffix(line, "|") {
			t.Errorf("unterminated table row: %q", line)
		}
	}
}

func TestTrendEmptyAndDegrading(t *testing.T) {
	md := New("r", time.Unix(0, 0).UTC()).AddTrend(nil).Markdown()
	if !strings.Contains(md, "No reassessments") {
		t.Error("empty trend text missing")
	}
	samples := []core.QualitySample{
		{RunID: "run-1", At: time.Unix(0, 0).UTC(), Accuracy: 0.93, Utility: 0.94, Outdated: 7},
		{RunID: "run-2", At: time.Unix(3600, 0).UTC(), Accuracy: 0.90, Utility: 0.92, Outdated: 10},
	}
	md = New("r", time.Unix(0, 0).UTC()).AddTrend(samples).Markdown()
	if !strings.Contains(md, "**-0.0300**") {
		t.Errorf("delta missing:\n%s", md)
	}
	if !strings.Contains(md, "Quality is degrading") {
		t.Error("degradation warning missing")
	}
}
