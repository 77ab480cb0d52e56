package curation

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// fixture bundles a populated store with its generation ground truth.
type fixture struct {
	db    *storage.DB
	store *fnjv.Store
	led   *Ledger
	taxa  *taxonomy.Generated
	col   *fnjv.Collection
	gaz   *geo.Gazetteer
	env   *envsource.Simulator
}

func newFixture(t *testing.T, records int) *fixture {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 150, OutdatedFraction: 0.07, ProvisionalFraction: 0.1, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	gaz := geo.SyntheticGazetteer(15, 8)
	env := envsource.NewSimulator()
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: records, Seed: 33}, taxa, gaz, env)
	if err != nil {
		t.Fatal(err)
	}
	store, err := fnjv.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	led, err := NewLedger(db)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{db: db, store: store, led: led, taxa: taxa, col: col, gaz: gaz, env: env}
}

func TestCleanerRepairsSyntax(t *testing.T) {
	f := newFixture(t, 1200)
	cl := &Cleaner{Checklist: f.taxa.Checklist, Ledger: f.led}
	report, err := cl.Clean(f.store)
	if err != nil {
		t.Fatal(err)
	}
	if report.RecordsChecked != 1200 {
		t.Fatalf("checked %d", report.RecordsChecked)
	}
	if report.Repaired == 0 {
		t.Fatal("nothing repaired")
	}
	// After cleaning, every planted syntax error resolves to its canonical name.
	repairedOK, total := 0, 0
	for id, canonical := range f.col.Truth.SyntaxErrors {
		total++
		rec, err := f.store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Species == canonical {
			repairedOK++
		}
	}
	if frac := float64(repairedOK) / float64(total); frac < 0.95 {
		t.Fatalf("only %.2f of planted syntax errors repaired (%d/%d)", frac, repairedOK, total)
	}
	// Repairs were logged.
	if f.led.HistoryCount() < report.Repaired {
		t.Fatalf("history has %d entries for %d repairs", f.led.HistoryCount(), report.Repaired)
	}
	// Domain errors were addressed.
	for id, field := range f.col.Truth.DomainErrors {
		rec, _ := f.store.Get(id)
		switch field {
		case "num_individuals":
			if rec.NumIndividuals < 0 {
				t.Fatalf("record %s negative individuals survived", id)
			}
		case "air_temp_c":
			if rec.AirTempC != nil && *rec.AirTempC > 50 {
				t.Fatalf("record %s bad temperature survived", id)
			}
		case "collect_time":
			if rec.CollectTime != "" && !validClock(rec.CollectTime) {
				t.Fatalf("record %s bad time survived", id)
			}
		}
	}
	// Idempotence: a second pass repairs nothing new.
	report2, err := cl.Clean(f.store)
	if err != nil {
		t.Fatal(err)
	}
	if report2.Repaired != 0 {
		t.Fatalf("second pass repaired %d", report2.Repaired)
	}
}

func TestCleanerWithoutChecklist(t *testing.T) {
	f := newFixture(t, 400)
	cl := &Cleaner{} // normalization only
	report, err := cl.Clean(f.store)
	if err != nil {
		t.Fatal(err)
	}
	// Case/whitespace errors get repaired; typos cannot be.
	if report.Repaired == 0 {
		t.Fatal("normalization repaired nothing")
	}
}

func TestDomainCheckDirect(t *testing.T) {
	temp := 99.0
	hum := 150.0
	lat, lon := 95.0, -200.0
	r := &fnjv.Record{
		ID: "X", NumIndividuals: -3, AirTempC: &temp, HumidityPct: &hum,
		CollectTime: "27:15", CollectDate: time.Date(1850, 1, 1, 0, 0, 0, 0, time.UTC),
		Latitude: &lat, Longitude: &lon,
	}
	issues, changed := domainCheck(r)
	if !changed {
		t.Fatal("nothing changed")
	}
	if len(issues) != 6 {
		t.Fatalf("issues = %d: %+v", len(issues), issues)
	}
	if r.NumIndividuals != 0 || r.AirTempC != nil || r.HumidityPct != nil ||
		r.CollectTime != "" || r.Latitude != nil {
		t.Fatalf("repairs not applied: %+v", r)
	}
	// The date issue is flag-only.
	flagged := 0
	for _, is := range issues {
		if !is.Repaired {
			flagged++
		}
	}
	if flagged != 1 {
		t.Fatalf("flag-only issues = %d", flagged)
	}
}

func TestValidClock(t *testing.T) {
	for s, want := range map[string]bool{
		"00:00": true, "23:59": true, "19:30": true,
		"24:00": false, "12:60": false, "noon": false, "12": false, "a:b": false,
	} {
		if validClock(s) != want {
			t.Errorf("validClock(%q) = %v", s, !want)
		}
	}
}

func TestGeocoder(t *testing.T) {
	f := newFixture(t, 800)
	before, _ := f.store.Stats()
	g := &Geocoder{Gazetteer: f.gaz, Ledger: f.led}
	report, err := g.Geocode(f.store)
	if err != nil {
		t.Fatal(err)
	}
	if report.RecordsChecked != 800 {
		t.Fatalf("checked %d", report.RecordsChecked)
	}
	if report.AlreadyHadCoord != before.WithCoordinates {
		t.Fatalf("AlreadyHadCoord=%d, stats said %d", report.AlreadyHadCoord, before.WithCoordinates)
	}
	if report.Geocoded == 0 {
		t.Fatal("nothing geocoded")
	}
	after, _ := f.store.Stats()
	if after.WithCoordinates != before.WithCoordinates+report.Geocoded {
		t.Fatalf("coords after = %d, want %d", after.WithCoordinates, before.WithCoordinates+report.Geocoded)
	}
	// All records geocodable except ambiguous city names.
	if report.Unknown != 0 {
		t.Fatalf("unknown places = %d (generator uses gazetteer places)", report.Unknown)
	}
	// Geocoding is logged.
	if f.led.HistoryCount() < report.Geocoded {
		t.Fatal("geocode changes not logged")
	}
	// Missing gazetteer is rejected.
	if _, err := (&Geocoder{}).Geocode(f.store); err == nil {
		t.Fatal("nil gazetteer accepted")
	}
}

func TestGapFiller(t *testing.T) {
	f := newFixture(t, 800)
	// Geocode first so gap-fill has locations.
	if _, err := (&Geocoder{Gazetteer: f.gaz}).Geocode(f.store); err != nil {
		t.Fatal(err)
	}
	gf := &GapFiller{Source: f.env, Ledger: f.led}
	report, err := gf.Fill(f.store)
	if err != nil {
		t.Fatal(err)
	}
	if report.Filled == 0 {
		t.Fatal("nothing filled")
	}
	after, _ := f.store.Stats()
	// Every record with coordinates now has env fields.
	if after.WithEnvFields < after.WithCoordinates {
		t.Fatalf("env fields %d < coords %d", after.WithEnvFields, after.WithCoordinates)
	}
	if _, err := (&GapFiller{}).Fill(f.store); err == nil {
		t.Fatal("nil source accepted")
	}
}

// pendingUpdates seeds the ledger with one pending NameUpdate per record
// bearing an outdated name — the proposals a detection run persists — and
// returns them.
func pendingUpdates(t *testing.T, f *fixture) []*NameUpdate {
	t.Helper()
	var updates []*NameUpdate
	err := f.store.Scan(func(rec *fnjv.Record) bool {
		if !f.taxa.OutdatedNames[rec.Species] {
			return true
		}
		res, err := f.taxa.Checklist.Resolve(context.Background(), rec.Species)
		if err != nil {
			t.Fatal(err)
		}
		ref := ""
		if len(res.History) > 0 {
			ref = res.History[len(res.History)-1].Reference
		}
		updates = append(updates, &NameUpdate{
			RecordID: rec.ID, OriginalName: rec.Species, UpdatedName: res.AcceptedName,
			Status: res.Status.String(), Reference: ref, Review: ReviewPending,
		})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.led.AddUpdates(updates); err != nil {
		t.Fatal(err)
	}
	return updates
}

func TestReviewLifecycle(t *testing.T) {
	f := newFixture(t, 1200)
	if _, err := (&Cleaner{Checklist: f.taxa.Checklist}).Clean(f.store); err != nil {
		t.Fatal(err)
	}
	updates := pendingUpdates(t, f)
	when := time.Date(2013, 10, 15, 0, 0, 0, 0, time.UTC)
	rr, err := Review(f.led, DefaultCurator, "biologist", when)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Reviewed != len(updates) {
		t.Fatalf("reviewed %d of %d", rr.Reviewed, len(updates))
	}
	if rr.Approved == 0 {
		t.Fatal("nothing approved")
	}
	if rr.Approved+rr.Rejected+rr.Deferred != rr.Reviewed {
		t.Fatalf("verdicts don't add up: %+v", rr)
	}
	// Deferred items stay pending.
	if f.led.CountUpdates(ReviewPending) != rr.Deferred {
		t.Fatalf("pending = %d, deferred = %d", f.led.CountUpdates(ReviewPending), rr.Deferred)
	}
	if f.led.CountUpdates(ReviewApproved) != rr.Approved {
		t.Fatal("approved count mismatch")
	}
	// CuratedName returns the new name for approved records, the original
	// otherwise.
	var approvedUpdate, rejectedSeen *NameUpdate
	for _, u := range updates {
		got, err := f.led.Update(u.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Review == ReviewApproved && approvedUpdate == nil {
			approvedUpdate = got
		}
		if got.Review == ReviewRejected && rejectedSeen == nil {
			rejectedSeen = got
		}
	}
	if approvedUpdate == nil {
		t.Fatal("no approved update found")
	}
	name, err := CuratedName(f.led, approvedUpdate.RecordID, approvedUpdate.OriginalName)
	if err != nil {
		t.Fatal(err)
	}
	if name != approvedUpdate.UpdatedName {
		t.Fatalf("curated name = %q, want %q", name, approvedUpdate.UpdatedName)
	}
	// A record with no updates keeps its own name.
	name, err = CuratedName(f.led, "FNJV-NONE", "Original name")
	if err != nil || name != "Original name" {
		t.Fatalf("untouched record name = %q, %v", name, err)
	}
	// Approved changes land in history.
	hist, err := f.led.History(approvedUpdate.RecordID)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hist {
		if h.Field == "species" && h.NewValue == approvedUpdate.UpdatedName {
			found = true
		}
	}
	if !found {
		t.Fatal("approved rename not in history")
	}
	// Double-resolve is rejected.
	if err := f.led.Resolve(approvedUpdate.ID, ReviewApproved, "x", when); err == nil {
		t.Fatal("double resolve accepted")
	}
	if err := f.led.Resolve(approvedUpdate.ID, "maybe", "x", when); err == nil {
		t.Fatal("bad verdict accepted")
	}
	if err := f.led.Resolve("UPD-999999", ReviewApproved, "x", when); !errors.Is(err, ErrUpdateNotFound) {
		t.Fatalf("missing update: %v", err)
	}
}

func TestSpatialAudit(t *testing.T) {
	f := newFixture(t, 2500)
	// Geocode everything so the audit sees the whole collection.
	if _, err := (&Geocoder{Gazetteer: f.gaz}).Geocode(f.store); err != nil {
		t.Fatal(err)
	}
	aud := &SpatialAuditor{Ledger: f.led}
	report, err := aud.Audit(f.store)
	if err != nil {
		t.Fatal(err)
	}
	if report.RecordsWithCoords < 2400 {
		t.Fatalf("records with coords = %d", report.RecordsWithCoords)
	}
	if report.SpeciesTested == 0 {
		t.Fatal("no species tested")
	}
	// All flags recorded in history.
	if f.led.HistoryCount() < len(report.Flagged) {
		t.Fatal("flags not logged")
	}
	// Range summaries cover every tested species.
	if len(report.Ranges) != report.SpeciesTested {
		t.Fatalf("ranges = %d, tested = %d", len(report.Ranges), report.SpeciesTested)
	}
	if len(report.Ranges) > 0 {
		sr := report.Ranges[0]
		if sr.Count < 5 || len(sr.Hull) == 0 {
			t.Fatalf("range summary = %+v", sr)
		}
	}
	// Recall on planted misplacements that are detectable (species with
	// enough records): at least half of all planted ones flagged.
	planted := 0
	caught := 0
	flagged := map[string]bool{}
	for _, o := range report.Flagged {
		flagged[o.RecordID] = true
	}
	for id := range f.col.Truth.Misplaced {
		planted++
		if flagged[id] {
			caught++
		}
	}
	if planted > 0 && caught == 0 {
		t.Fatalf("0 of %d planted misplacements caught", planted)
	}
}

func TestLedgerPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	led, err := NewLedger(db)
	if err != nil {
		t.Fatal(err)
	}
	u := &NameUpdate{
		RecordID: "FNJV-00001", OriginalName: "Elachistocleis ovalis",
		UpdatedName: "Elachistocleis cesarii", Status: "synonym",
		Reference: "Caramaschi (2010)", DetectedAt: time.Now(),
	}
	if err := led.AddUpdates([]*NameUpdate{u}); err != nil {
		t.Fatal(err)
	}
	if u.ID == "" {
		t.Fatal("ID not assigned")
	}
	if err := led.LogChange(HistoryEntry{RecordID: "FNJV-00001", Field: "species", NewValue: "x"}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	led2, err := NewLedger(db2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := led2.Update(u.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.UpdatedName != "Elachistocleis cesarii" || got.Review != ReviewPending {
		t.Fatalf("reloaded update = %+v", got)
	}
	ups, err := led2.UpdatesForRecord("FNJV-00001")
	if err != nil || len(ups) != 1 {
		t.Fatalf("UpdatesForRecord = %v, %v", ups, err)
	}
	if led2.HistoryCount() != 1 {
		t.Fatalf("history = %d", led2.HistoryCount())
	}
	// ID sequences continue after reload (no collisions).
	u2 := &NameUpdate{RecordID: "FNJV-00002", OriginalName: "A b", Status: "synonym", DetectedAt: time.Now()}
	if err := led2.AddUpdates([]*NameUpdate{u2}); err != nil {
		t.Fatal(err)
	}
	if u2.ID == u.ID {
		t.Fatal("ID collision after reload")
	}
}

// TestLedgerConcurrentAddUpdates: concurrent detections persist their updates
// through one ledger; every update must get its own ID (a shared ID is a
// duplicate-key insert failure for whichever batch commits second).
func TestLedgerConcurrentAddUpdates(t *testing.T) {
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	led, err := NewLedger(db)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 40
	batches := make([][]*NameUpdate, writers)
	var wg sync.WaitGroup
	for w := range batches {
		for i := 0; i < each; i++ {
			batches[w] = append(batches[w], &NameUpdate{RecordID: "FNJV-00001", OriginalName: "a", DetectedAt: time.Now()})
		}
		wg.Add(1)
		go func(batch []*NameUpdate) {
			defer wg.Done()
			if err := led.AddUpdates(batch); err != nil {
				t.Errorf("AddUpdates: %v", err)
			}
		}(batches[w])
	}
	wg.Wait()
	ids := map[string]bool{}
	for _, batch := range batches {
		for _, u := range batch {
			ids[u.ID] = true
		}
	}
	if len(ids) != writers*each {
		t.Fatalf("distinct update IDs = %d, want %d", len(ids), writers*each)
	}
	if got := led.CountUpdates(ReviewPending); got != writers*each {
		t.Fatalf("persisted updates = %d, want %d", got, writers*each)
	}
}
