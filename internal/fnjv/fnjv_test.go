package fnjv

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/envsource"
	"repro/internal/geo"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

func smallCollection(t *testing.T, records int) (*Collection, *taxonomy.Generated) {
	t.Helper()
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 120, OutdatedFraction: 0.07, ProvisionalFraction: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	gaz := geo.SyntheticGazetteer(20, 4)
	col, err := Generate(CollectionSpec{Records: records, Seed: 9}, taxa, gaz, envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	return col, taxa
}

func TestGenerateShape(t *testing.T) {
	col, _ := smallCollection(t, 800)
	if len(col.Records) != 800 {
		t.Fatalf("records = %d", len(col.Records))
	}
	if col.DistinctSpecies != 120 {
		t.Fatalf("distinct species = %d", col.DistinctSpecies)
	}
	// Every species appears at least once (IDs are unique).
	seen := map[string]bool{}
	ids := map[string]bool{}
	for _, r := range col.Records {
		if ids[r.ID] {
			t.Fatalf("duplicate ID %s", r.ID)
		}
		ids[r.ID] = true
		seen[col.Truth.SpeciesOf[r.ID]] = true
		if r.CollectDate.IsZero() || r.Country == "" || r.City == "" {
			t.Fatalf("record %s missing basics: %+v", r.ID, r)
		}
	}
	if len(seen) != 120 {
		t.Fatalf("species coverage = %d", len(seen))
	}
}

func TestGenerateDirtRates(t *testing.T) {
	col, taxa := smallCollection(t, 2000)
	tr := col.Truth
	// Missing coordinates ≈ 85%.
	if frac := float64(tr.MissingCoords) / 2000; frac < 0.80 || frac > 0.90 {
		t.Fatalf("missing-coord rate = %.3f", frac)
	}
	// Syntax errors ≈ 8%.
	if frac := float64(len(tr.SyntaxErrors)) / 2000; frac < 0.05 || frac > 0.11 {
		t.Fatalf("syntax-error rate = %.3f", frac)
	}
	// Each syntax error actually differs from the canonical form but
	// normalizes or fuzz-matches back.
	for id, canonical := range tr.SyntaxErrors {
		var rec *Record
		for _, r := range col.Records {
			if r.ID == id {
				rec = r
				break
			}
		}
		if rec.Species == canonical {
			t.Fatalf("record %s marked dirty but name is clean", id)
		}
		if norm := taxonomy.Normalize(rec.Species); norm != canonical {
			// Typo-class errors don't normalize away; the checklist must
			// still fuzz-match them within 2 edits.
			if _, err := taxa.Checklist.ResolveFuzzy(norm, 2); norm != "" && err != nil {
				t.Fatalf("record %s corrupted beyond repair: %q vs %q: %v", id, rec.Species, canonical, err)
			}
		}
	}
	// Domain errors present and recorded.
	if len(tr.DomainErrors) == 0 {
		t.Fatal("no domain errors planted")
	}
	for id, field := range tr.DomainErrors {
		switch field {
		case "num_individuals", "air_temp_c", "collect_time":
		default:
			t.Fatalf("record %s has unknown domain-error field %q", id, field)
		}
	}
	// Misplaced records really are far from home.
	for _, r := range col.Records {
		if tr.Misplaced[r.ID] {
			if !r.HasCoordinates() {
				t.Fatalf("misplaced record %s has no coordinates", r.ID)
			}
			home := tr.HomeOf[tr.SpeciesOf[r.ID]]
			d := geo.DistanceKm(geo.Point{Lat: *r.Latitude, Lon: *r.Longitude}, home)
			if d < 1000 {
				t.Fatalf("misplaced record %s only %.0f km from home", r.ID, d)
			}
		}
	}
}

// TestGenerateDeterministic: one seed generates one collection, field for
// field — coordinates included, which come from the gazetteer's places and
// so from the order PlacesIn lists a state's namesakes in.
func TestGenerateDeterministic(t *testing.T) {
	a, _ := smallCollection(t, 300)
	for run := 0; run < 8; run++ {
		b, _ := smallCollection(t, 300)
		if len(b.Records) != len(a.Records) {
			t.Fatalf("run %d generated %d records, want %d", run, len(b.Records), len(a.Records))
		}
		for i := range a.Records {
			if !reflect.DeepEqual(a.Records[i], b.Records[i]) {
				t.Fatalf("run %d: record %d differs:\n%+v\n%+v", run, i, *a.Records[i], *b.Records[i])
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	taxa, _ := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 50, Seed: 1})
	gaz := geo.SyntheticGazetteer(5, 1)
	env := envsource.NewSimulator()
	if _, err := Generate(CollectionSpec{Records: 10, Seed: 1}, taxa, gaz, env); err == nil {
		t.Fatal("too-few records accepted")
	}
	empty := &taxonomy.Generated{Checklist: taxonomy.NewChecklist()}
	if _, err := Generate(CollectionSpec{Records: 10, Seed: 1}, empty, gaz, env); err == nil {
		t.Fatal("empty taxonomy accepted")
	}
	if _, err := Generate(CollectionSpec{Records: 100, Seed: 1}, taxa, geo.NewGazetteer(), env); err == nil {
		t.Fatal("empty gazetteer accepted")
	}
}

func TestRowRoundTrip(t *testing.T) {
	temp, hum, lat, lon := 24.5, 80.0, -22.9, -47.06
	r := &Record{
		ID: "FNJV-00001", Phylum: "Chordata", Class: "Amphibia", Order: "Anura",
		Family: "Hylidae", Genus: "Hyla", Species: "Hyla faber", Gender: "male",
		NumIndividuals: 2,
		CollectDate:    time.Date(1978, 11, 3, 0, 0, 0, 0, time.UTC),
		CollectTime:    "19:30", Country: "Brasil", State: "São Paulo", City: "Campinas",
		Locality: "mata próxima ao rio", Habitat: "pond margin", MicroHabitat: "emergent vegetation",
		AirTempC: &temp, HumidityPct: &hum, Atmosphere: "clear",
		Latitude: &lat, Longitude: &lon,
		RecordingDevice: "Nagra III", MicrophoneModel: "Sennheiser ME66",
		SoundFileFormat: "WAV", FrequencyKHz: 44.1,
		Recordist: "J. Vielliard", DurationSec: 120, Notes: "clear bout",
	}
	got, err := FromRow(ToRow(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != r.ID || got.Species != r.Species || got.City != r.City ||
		*got.AirTempC != temp || *got.Latitude != lat || got.DurationSec != 120 ||
		!got.CollectDate.Equal(r.CollectDate) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Nil optionals survive.
	r2 := &Record{ID: "FNJV-00002", Species: "X y", FrequencyKHz: 22.05}
	got2, err := FromRow(ToRow(r2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.AirTempC != nil || got2.Latitude != nil || got2.HasCoordinates() {
		t.Fatalf("nil optionals resurrected: %+v", got2)
	}
	if got2.CollectDate.IsZero() != true {
		t.Fatal("zero date not preserved")
	}
	if _, err := FromRow(storage.Row{storage.S("short")}); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestStoreCRUDAndQueries(t *testing.T) {
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	store, err := NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	col, _ := smallCollection(t, 500)
	if err := store.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 500 {
		t.Fatalf("Len = %d", store.Len())
	}
	got, err := store.Get(col.Records[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Species != col.Records[0].Species {
		t.Fatalf("Get mismatch: %q vs %q", got.Species, col.Records[0].Species)
	}
	if _, err := store.Get("FNJV-99999"); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("missing get: %v", err)
	}
	// Update.
	got.Notes = "revised"
	if err := store.Update(got); err != nil {
		t.Fatal(err)
	}
	again, _ := store.Get(got.ID)
	if again.Notes != "revised" {
		t.Fatal("update lost")
	}
	// Species index.
	bySpecies, err := lookup(store, "species", got.Species)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range bySpecies {
		if r.ID == got.ID {
			found = true
		}
		if r.Species != got.Species {
			t.Fatalf("BySpecies returned %q", r.Species)
		}
	}
	if !found {
		t.Fatal("BySpecies missed the record")
	}
	// State index covers the whole collection.
	total := 0
	for _, st := range geo.BrazilStates {
		rs, err := lookup(store, "state", st.Name)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rs)
	}
	if total != 500 {
		t.Fatalf("state partition covers %d of 500", total)
	}
	// Distinct species and stats.
	distinct, err := store.DistinctSpecies()
	if err != nil {
		t.Fatal(err)
	}
	if len(distinct) < col.DistinctSpecies {
		t.Fatalf("distinct raw names %d < %d planted species", len(distinct), col.DistinctSpecies)
	}
	stats, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 500 || stats.DistinctSpecies != len(distinct) {
		t.Fatalf("stats = %+v", stats)
	}
	expectCoords := 500 - col.Truth.MissingCoords
	if stats.WithCoordinates != expectCoords {
		t.Fatalf("WithCoordinates = %d, want %d", stats.WithCoordinates, expectCoords)
	}
	// Reject empty IDs.
	if err := store.PutAll([]*Record{{}}); err == nil {
		t.Fatal("empty ID accepted in bulk")
	}
}

// lookup reads the records whose column equals value through the store's
// secondary index on it: the oracle for the indexes PutAll maintains.
func lookup(s *Store, column, value string) ([]*Record, error) {
	rows, err := s.db.Table(Schema.Table).Lookup(column, storage.S(value))
	if err != nil {
		return nil, err
	}
	out := make([]*Record, 0, len(rows))
	for _, row := range rows {
		r, err := FromRow(row)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func TestFieldNamesMatchSchema(t *testing.T) {
	names := FieldNames()
	if len(names) != len(Schema.Columns)-1 { // minus the id column
		t.Fatalf("FieldNames has %d entries, schema has %d non-key columns", len(names), len(Schema.Columns)-1)
	}
	for _, n := range names {
		if Schema.Index(n) < 0 {
			t.Fatalf("field %q not in schema", n)
		}
	}
	groups := TableIIGroups()
	count := 0
	for row, fields := range groups {
		for _, f := range fields {
			if Schema.Index(f) < 0 {
				t.Fatalf("Table II row %d field %q not in schema", row, f)
			}
			count++
		}
	}
	// The paper's Table II lists 22 fields (one duplicated in the original);
	// our mapping covers 22 distinct ones.
	if count != 22 {
		t.Fatalf("Table II mapping has %d fields, want 22", count)
	}
}

func TestEnvFieldsPlausible(t *testing.T) {
	col, _ := smallCollection(t, 400)
	for _, r := range col.Records {
		if r.AirTempC != nil {
			if *r.AirTempC < -10 || (*r.AirTempC > 50 && col.Truth.DomainErrors[r.ID] != "air_temp_c") {
				t.Fatalf("record %s temp %.1f implausible", r.ID, *r.AirTempC)
			}
		}
		if r.HumidityPct != nil && (*r.HumidityPct < 0 || *r.HumidityPct > 100) {
			t.Fatalf("record %s humidity %.1f out of range", r.ID, *r.HumidityPct)
		}
		if math.IsNaN(r.FrequencyKHz) || r.FrequencyKHz <= 0 {
			t.Fatalf("record %s frequency %.2f", r.ID, r.FrequencyKHz)
		}
	}
}
