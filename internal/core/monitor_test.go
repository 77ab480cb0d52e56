package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/taxonomy"
)

func TestMonitorSamplesAndDegradationAlert(t *testing.T) {
	sys, taxa, _ := testSystem(t, 400, 100)
	mon := NewMonitor(sys, taxa.Checklist, RunOptions{SkipLedger: true})
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
	first, last, delta, count, err := mon.Trend()
	if err != nil || count != 3 || first <= last || delta >= 0 {
		t.Fatalf("trend = %.3f %.3f %.3f %d (%v)", first, last, delta, count, err)
	}
	history, err := mon.History()
	if err != nil || len(history) != 3 {
		t.Fatalf("history = %d (%v)", len(history), err)
	}
	for i, want := range []QualitySample{s1, s3} {
		got := history[2*i]
		if got.RunID != want.RunID || got.Accuracy != want.Accuracy || got.Utility != want.Utility || !got.At.Equal(want.At) {
			t.Fatalf("stored sample %+v, want the tick's %+v", got, want)
		}
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
	mon := NewMonitor(sys, taxa.Checklist, RunOptions{SkipLedger: true})
	if _, _, err := mon.ReassessOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	sys2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	mon2 := NewMonitor(sys2, taxa.Checklist, RunOptions{SkipLedger: true})
	if h, err := mon2.History(); err != nil || len(h) != 1 {
		t.Fatalf("persisted history = %d (%v)", len(h), err)
	}
	// A fresh tick appends to the reloaded series.
	if _, _, err := mon2.ReassessOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if h, err := mon2.History(); err != nil || len(h) != 2 {
		t.Fatalf("history after reload+tick = %d (%v)", len(h), err)
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
