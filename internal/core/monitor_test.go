package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/taxonomy"
)

func TestMonitorSamplesAndDegradationAlert(t *testing.T) {
	sys, taxa, _ := testSystem(t, 400, 100)
	mon, err := NewMonitor(sys, taxa.Checklist, RunOptions{SkipLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	s1, alerts, err := mon.ReassessOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("first sample raised alerts: %+v", alerts)
	}
	if s1.Distinct != 100 || s1.Accuracy <= 0.9 {
		t.Fatalf("sample = %+v", s1)
	}
	// Stable world: second tick, no alert.
	_, alerts, err = mon.ReassessOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("stable tick raised alerts: %+v", alerts)
	}
	// Knowledge evolves: deprecate 10 more names, quality degrades, alert.
	when := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	n := 0
	for _, name := range taxa.HistoricalNames {
		if n == 10 {
			break
		}
		if taxa.OutdatedNames[name] {
			continue
		}
		repl := &taxonomy.Taxon{
			ID:     "EV-" + name,
			Name:   taxonomy.Name{Genus: "Evolvedgenus", Epithet: "sp" + string(rune('a'+n))},
			Status: taxonomy.StatusAccepted,
		}
		if err := taxa.Checklist.Deprecate(name, repl, when, "Revision (2015)"); err != nil {
			t.Fatal(err)
		}
		n++
	}
	s3, alerts, err := mon.ReassessOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Kind != AlertDegraded {
		t.Fatalf("degradation alerts = %+v", alerts)
	}
	if s3.Accuracy >= s1.Accuracy {
		t.Fatalf("accuracy did not fall: %.3f -> %.3f", s1.Accuracy, s3.Accuracy)
	}
	// Trend over three samples.
	first, last, delta, count := mon.Trend()
	if count != 3 || first <= last || delta >= 0 {
		t.Fatalf("trend = %.3f %.3f %.3f %d", first, last, delta, count)
	}
	if len(mon.History()) != 3 {
		t.Fatalf("history = %d", len(mon.History()))
	}
}

func TestMonitorHistoryPersists(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 50, OutdatedFraction: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seedCollection(t, sys, taxa, 200)
	mon, err := NewMonitor(sys, taxa.Checklist, RunOptions{SkipLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mon.ReassessOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	sys2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	mon2, err := NewMonitor(sys2, taxa.Checklist, RunOptions{SkipLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(mon2.History()) != 1 {
		t.Fatalf("persisted history = %d", len(mon2.History()))
	}
	// A fresh tick appends to the reloaded series.
	if _, _, err := mon2.ReassessOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(mon2.History()) != 2 {
		t.Fatalf("history after reload+tick = %d", len(mon2.History()))
	}
}

func TestMonitorAuthorityAlert(t *testing.T) {
	sys, taxa, _ := testSystem(t, 300, 80)
	mon, err := NewMonitor(sys, taxa.Checklist, RunOptions{
		SkipLedger:           true,
		MeasuredAvailability: 0.3, // below the 0.5 floor
	})
	if err != nil {
		t.Fatal(err)
	}
	_, alerts, err := mon.ReassessOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, a := range alerts {
		if a.Kind == AlertAuthorityDown {
			found = true
		}
	}
	if !found {
		t.Fatalf("no authority alert in %+v", alerts)
	}
}

// seedCollection loads a generated collection into an already-open system.
func seedCollection(t *testing.T, sys *System, taxa *taxonomy.Generated, records int) {
	t.Helper()
	col := generateClean(t, taxa, records)
	if err := sys.Records.PutAll(col); err != nil {
		t.Fatal(err)
	}
}
