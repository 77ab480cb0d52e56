package fnjv

import (
	"testing"
	"time"

	"repro/internal/storage"
)

func queryFixture(t *testing.T) *Store {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	store, err := NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id, species, genus, class, state string, year int, hhmm string, lat, lon, temp float64, atmo, habitat string) *Record {
		r := &Record{
			ID: id, Species: species, Genus: genus, Class: class, Phylum: "Chordata",
			State: state, Country: "Brasil", City: "Campinas",
			CollectDate: time.Date(year, 3, 10, 0, 0, 0, 0, time.UTC),
			CollectTime: hhmm, Atmosphere: atmo, Habitat: habitat,
			FrequencyKHz: 44.1,
		}
		if lat != 0 {
			r.Latitude, r.Longitude = &lat, &lon
		}
		if temp != 0 {
			r.AirTempC = &temp
		}
		return r
	}
	records := []*Record{
		mk("R001", "Hyla faber", "Hyla", "Amphibia", "São Paulo", 1978, "19:30", -22.9, -47.0, 24, "clear", "pond margin"),
		mk("R002", "Hyla faber", "Hyla", "Amphibia", "São Paulo", 1985, "03:10", -23.1, -47.2, 19, "rain", "swamp"),
		mk("R003", "Hyla faber", "Hyla", "Amphibia", "Minas Gerais", 1992, "14:00", -19.5, -44.0, 28, "clear", "gallery forest"),
		mk("R004", "Scinax fuscomarginatus", "Scinax", "Amphibia", "São Paulo", 2001, "20:45", -22.8, -47.1, 22, "overcast", "pond margin"),
		mk("R005", "Pitangus sulphuratus", "Pitangus", "Aves", "São Paulo", 2005, "06:30", 0, 0, 0, "", "pasture"),
	}
	if err := store.PutAll(records); err != nil {
		t.Fatal(err)
	}
	return store
}

func TestQueryBySpeciesAndState(t *testing.T) {
	store := queryFixture(t)
	got, err := store.Query(And(BySpeciesName("hyla  FABER"), ByState("são paulo")), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "R001" || got[1].ID != "R002" {
		t.Fatalf("got %d records: %v", len(got), ids(got))
	}
}

func TestQueryTaxonAndGenus(t *testing.T) {
	store := queryFixture(t)
	amph, err := store.Query(ByTaxon("Amphibia"), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(amph) != 4 {
		t.Fatalf("amphibians = %v", ids(amph))
	}
	hyla, err := store.Query(ByTaxon("hyla"), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hyla) != 3 {
		t.Fatalf("Hyla = %v", ids(hyla))
	}
}

func TestQueryCombinators(t *testing.T) {
	store := queryFixture(t)
	got, err := store.Query(And(ByTaxon("amphibia"), ByState("minas gerais")), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "R003" {
		t.Fatalf("and-query = %v", ids(got))
	}
	got, err = store.Query(And(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("empty and-query = %v", ids(got))
	}
}

func TestQueryOrderAndLimit(t *testing.T) {
	store := queryFixture(t)
	got, err := store.Query(ByTaxon("amphibia"), QueryOptions{OrderBy: "date", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "R001" || got[1].ID != "R002" {
		t.Fatalf("ordered = %v", ids(got))
	}
	bySpecies, err := store.Query(nilSafe(), QueryOptions{OrderBy: "species"})
	if err != nil {
		t.Fatal(err)
	}
	if bySpecies[0].Species > bySpecies[len(bySpecies)-1].Species {
		t.Fatal("species order wrong")
	}
	if _, err := store.Query(nilSafe(), QueryOptions{OrderBy: "color"}); err == nil {
		t.Fatal("bad OrderBy accepted")
	}
}

func nilSafe() Predicate { return func(*Record) bool { return true } }

func ids(rs []*Record) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}
