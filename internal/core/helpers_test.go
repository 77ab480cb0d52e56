package core

import (
	"testing"

	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/taxonomy"
	"repro/internal/workflow"
)

// workflowMarshal keeps the test import list tidy.
func workflowMarshal(d *workflow.Definition) ([]byte, error) { return workflow.MarshalXML(d) }

// generateClean builds a syntax-clean record set from the given taxonomy.
func generateClean(t *testing.T, taxa *taxonomy.Generated, records int) []*fnjv.Record {
	t.Helper()
	col, err := fnjv.Generate(fnjv.CollectionSpec{
		Records: records, Seed: 8, SyntaxErrorRate: 1e-12,
	}, taxa, geo.SyntheticGazetteer(10, 8), envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	return col.Records
}

// smallCollection loads a 12-species, 60-record clean collection into sys —
// enough for a detection run of a few dozen provenance deltas — and returns
// the taxonomy whose checklist resolves it.
func smallCollection(t *testing.T, sys *System) *taxonomy.Generated {
	t.Helper()
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 12, OutdatedFraction: 0.07, ProvisionalFraction: 0.1, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Records.PutAll(generateClean(t, taxa, 60)); err != nil {
		t.Fatal(err)
	}
	return taxa
}
