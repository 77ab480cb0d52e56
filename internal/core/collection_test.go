package core

import (
	"testing"
	"time"

	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/quality"
	"repro/internal/taxonomy"
)

func TestAssessCollection(t *testing.T) {
	sys, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 100, OutdatedFraction: 0.07, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	gaz := geo.SyntheticGazetteer(10, 6)
	env := envsource.NewSimulator()
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: 600, Seed: 6}, taxa, gaz, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	now := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)

	aBefore, facts, err := sys.AssessCollection(taxa.Checklist, now.AddDate(0, -1, 0), now)
	if err != nil {
		t.Fatal(err)
	}
	if facts.Records != 600 {
		t.Fatalf("facts = %+v", facts)
	}
	// Dirty collection: coordinates mostly missing -> completeness well
	// below 1; domain errors -> consistency below 1.
	compBefore := aBefore.Dimensions[quality.DimCompleteness]
	consBefore := aBefore.Dimensions[quality.DimConsistency]
	if compBefore > 0.85 {
		t.Fatalf("dirty completeness = %.3f, expected lower", compBefore)
	}
	if consBefore >= 1 {
		t.Fatalf("dirty consistency = %.3f", consBefore)
	}
	if aBefore.Dimensions[quality.DimTimeliness] < 0.9 {
		t.Fatalf("freshly curated timeliness = %.3f", aBefore.Dimensions[quality.DimTimeliness])
	}

	// Stage-1 curation improves both dimensions.
	curateStage1(t, sys.Records, taxa.Checklist, gaz, env, nil)
	aAfter, factsAfter, err := sys.AssessCollection(taxa.Checklist, now, now)
	if err != nil {
		t.Fatal(err)
	}
	if aAfter.Dimensions[quality.DimCompleteness] <= compBefore {
		t.Fatalf("completeness did not improve: %.3f -> %.3f", compBefore, aAfter.Dimensions[quality.DimCompleteness])
	}
	if aAfter.Dimensions[quality.DimConsistency] < consBefore {
		t.Fatalf("consistency regressed: %.3f -> %.3f", consBefore, aAfter.Dimensions[quality.DimConsistency])
	}
	if factsAfter.WithCoordinates <= facts.WithCoordinates {
		t.Fatal("geocoding had no effect on facts")
	}
	// Zero lastCurated disables timeliness.
	aNoTime, _, err := sys.AssessCollection(taxa.Checklist, time.Time{}, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := aNoTime.Dimensions[quality.DimTimeliness]; ok {
		t.Fatal("timeliness computed without lastCurated")
	}
	// Nil checklist skips authority consistency but still assesses.
	aNoCl, factsNoCl, err := sys.AssessCollection(nil, now, now)
	if err != nil {
		t.Fatal(err)
	}
	if factsNoCl.ClassificationMismatch != 0 {
		t.Fatal("classification checked without checklist")
	}
	if aNoCl.Utility <= 0 {
		t.Fatal("no utility without checklist")
	}
}

func TestValidClockString(t *testing.T) {
	for s, want := range map[string]bool{
		"00:00": true, "23:59": true, "19:05": true,
		"24:00": false, "12:60": false, "9:30": false, "ab:cd": false, "12-30": false,
	} {
		if validClockString(s) != want {
			t.Errorf("validClockString(%q) = %v", s, !want)
		}
	}
}

func TestGatherFactsConsistencyCounters(t *testing.T) {
	sys, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cl := taxonomy.NewChecklist()
	n, _ := taxonomy.ParseName("Hyla faber")
	cl.Add(&taxonomy.Taxon{ID: "T1", Name: n, Status: taxonomy.StatusAccepted,
		Classification: taxonomy.Classification{Class: "Amphibia"}})
	recs := []*fnjv.Record{
		{ID: "R1", Species: "Hyla faber", Genus: "Hyla", Class: "Amphibia", FrequencyKHz: 44.1,
			CollectDate: time.Date(1980, 1, 1, 0, 0, 0, 0, time.UTC), CollectTime: "19:30"},
		{ID: "R2", Species: "Hyla faber", Genus: "Scinax", Class: "Aves", FrequencyKHz: 44.1, // both mismatches
			CollectDate: time.Date(1880, 1, 1, 0, 0, 0, 0, time.UTC), CollectTime: "27:00"}, // both violations
	}
	if err := sys.Records.PutAll(recs); err != nil {
		t.Fatal(err)
	}
	facts, err := gatherFacts(sys.Records, cl)
	if err != nil {
		t.Fatal(err)
	}
	if facts.GenusMismatch != 1 {
		t.Fatalf("genus mismatches = %d", facts.GenusMismatch)
	}
	if facts.ClassificationMismatch != 1 {
		t.Fatalf("classification mismatches = %d", facts.ClassificationMismatch)
	}
	if facts.TimeDomainViolation != 2 { // bad date + bad time on R2
		t.Fatalf("time violations = %d", facts.TimeDomainViolation)
	}
}
