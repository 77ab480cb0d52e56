package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/curation"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/taxonomy"
	"repro/internal/workflow"
)

// workflowMarshal keeps the test import list tidy.
func workflowMarshal(d *workflow.Definition) ([]byte, error) { return workflow.MarshalXML(d) }

// curateStage1 runs the §IV.B stage-1 steps — clean, geocode, gap-fill — over
// store, logging into led when it is not nil.
func curateStage1(t *testing.T, store fnjv.Records, checklist *taxonomy.Checklist, gaz *geo.Gazetteer, env envsource.Source, led *curation.Ledger) {
	t.Helper()
	if _, err := (&curation.Cleaner{Checklist: checklist, Ledger: led}).Clean(store); err != nil {
		t.Fatal(err)
	}
	if _, err := (&curation.Geocoder{Gazetteer: gaz, Ledger: led}).Geocode(store); err != nil {
		t.Fatal(err)
	}
	if _, err := (&curation.GapFiller{Source: env, Ledger: led}).Fill(store); err != nil {
		t.Fatal(err)
	}
}

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
// a detection run of a few dozen provenance deltas when its names are
// dispatched one per call — and returns the taxonomy whose checklist
// resolves it.
func smallCollection(t *testing.T, sys *System) *taxonomy.Generated {
	t.Helper()
	taxa := smallTaxa(t)
	if err := sys.Records.PutAll(generateClean(t, taxa, 60)); err != nil {
		t.Fatal(err)
	}
	return taxa
}

// smallTaxa is smallCollection's taxonomy, without the collection: what a
// process reopening a directory smallCollection filled resolves against.
func smallTaxa(t *testing.T) *taxonomy.Generated {
	t.Helper()
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 12, OutdatedFraction: 0.07, ProvisionalFraction: 0.1, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return taxa
}

// recordedElements counts the iteration elements of activity a history
// records, over its iteration-element and iteration-batch events.
func recordedElements(history []workflow.HistoryEvent, activity string) int {
	n := 0
	for _, ev := range history {
		switch {
		case ev.Activity != activity:
		case ev.Type == workflow.HistoryIterationElement:
			n++
		case ev.Type == workflow.HistoryIterationBatch:
			n += len(ev.Batch)
		}
	}
	return n
}

// foldShape renders what a run's history says about each of its activities —
// whether it completed, its binding, its elements in index order and its
// outputs — which is the same whether the history records the elements one
// per event or a lease per event.
func foldShape(history []workflow.HistoryEvent) string {
	var fold workflow.HistoryFold
	var names []string
	for _, ev := range history {
		fold.Apply(ev)
		if ev.Activity != "" && !slices.Contains(names, ev.Activity) {
			names = append(names, ev.Activity)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fa := fold.Activity(name)
		fmt.Fprintf(&b, "%s done=%v planned=%d in=%s out=%s\n", name, fa.Done, fa.Planned, renderPorts(fa.Inputs), renderPorts(fa.Outputs))
		els := slices.Clone(fa.Elements)
		slices.SortFunc(els, func(a, b workflow.ElementTrace) int { return a.Index - b.Index })
		for _, el := range els {
			fmt.Fprintf(&b, "  %d %s -> %s\n", el.Index, renderPorts(el.Inputs), renderPorts(el.Outputs))
		}
	}
	return b.String()
}

func renderPorts(m map[string]workflow.Data) string {
	parts := make([]string, 0, len(m))
	for k, v := range m {
		parts = append(parts, k+"="+v.String())
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}
