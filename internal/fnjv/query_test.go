package fnjv

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

func openStore(t *testing.T) *Store {
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
	return store
}

func queryFixture(t *testing.T) *Store {
	t.Helper()
	store := openStore(t)
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
	got, err := store.Query(Predicate{Species: "hyla  FABER", State: "são paulo"}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "R001" || got[1].ID != "R002" {
		t.Fatalf("got %d records: %v", len(got), ids(got))
	}
}

func TestQueryTaxonAndGenus(t *testing.T) {
	store := queryFixture(t)
	amph, err := store.Query(Predicate{Taxon: "Amphibia"}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(amph) != 4 {
		t.Fatalf("amphibians = %v", ids(amph))
	}
	hyla, err := store.Query(Predicate{Taxon: "hyla"}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hyla) != 3 {
		t.Fatalf("Hyla = %v", ids(hyla))
	}
}

func TestQueryCombinators(t *testing.T) {
	store := queryFixture(t)
	got, err := store.Query(Predicate{Taxon: "amphibia", State: "minas gerais"}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "R003" {
		t.Fatalf("and-query = %v", ids(got))
	}
	got, err = store.Query(Predicate{}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("empty query = %v", ids(got))
	}
}

func TestQueryOrderAndLimit(t *testing.T) {
	store := queryFixture(t)
	got, err := store.Query(Predicate{Taxon: "amphibia"}, QueryOptions{OrderBy: "date", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "R001" || got[1].ID != "R002" {
		t.Fatalf("ordered = %v", ids(got))
	}
	bySpecies, err := store.Query(Predicate{}, QueryOptions{OrderBy: "species"})
	if err != nil {
		t.Fatal(err)
	}
	if bySpecies[0].Species > bySpecies[len(bySpecies)-1].Species {
		t.Fatal("species order wrong")
	}
	if _, err := store.Query(Predicate{}, QueryOptions{OrderBy: "color"}); err == nil {
		t.Fatal("bad OrderBy accepted")
	}
}

// TestQueryDecodesOnlyMatches: an unknown OrderBy fails before the scan, and
// a query decodes only the rows it returns — each far below the one
// allocation per stored record a decode-everything scan would make.
func TestQueryDecodesOnlyMatches(t *testing.T) {
	col, _ := smallCollection(t, 600)
	store := openStore(t)
	if err := store.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	target := col.Records[17]
	badOrder := testing.AllocsPerRun(5, func() {
		if _, err := store.Query(Predicate{}, QueryOptions{OrderBy: "color"}); err == nil {
			t.Fatal("bad OrderBy accepted")
		}
	})
	oneSpecies := testing.AllocsPerRun(5, func() {
		got, err := store.Query(Predicate{Species: target.Species, State: target.State}, QueryOptions{})
		if err != nil || len(got) == 0 || len(got) > 20 {
			t.Fatalf("species query: %d records, %v", len(got), err)
		}
	})
	for name, allocs := range map[string]float64{"unknown order": badOrder, "one species": oneSpecies} {
		if allocs >= float64(len(col.Records))/4 {
			t.Errorf("%s: %.0f allocations over %d records", name, allocs, len(col.Records))
		}
	}
}

// TestQueryFailsOnRowOfWrongArity: a stored row that does not fit the
// schema fails the query, as it fails Scan; it is not skipped.
func TestQueryFailsOnRowOfWrongArity(t *testing.T) {
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	short := storage.MustSchema(Schema.Table,
		storage.Column{Name: "id", Kind: storage.KindString},
		storage.Column{Name: "species", Kind: storage.KindString, Nullable: true})
	if err := db.Apply(storage.CreateTableOp(short), storage.InsertOp(Schema.Table, storage.Row{storage.S("R1"), storage.S("Hyla faber")})); err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []Predicate{{}, {Species: "nothing stored"}} {
		if got, err := store.Query(pred, QueryOptions{}); err == nil || !strings.Contains(err.Error(), "row has 2 values") {
			t.Fatalf("Query(%+v) = %v, %v; want the arity error", pred, ids(got), err)
		}
	}
}

// The closures the Predicate struct replaced, kept as the reference its
// raw-cell matching must agree with.

type oraclePredicate func(*Record) bool

func oracleAnd(ps ...oraclePredicate) oraclePredicate {
	return func(r *Record) bool {
		for _, p := range ps {
			if !p(r) {
				return false
			}
		}
		return true
	}
}

func oracleBySpeciesName(name string) oraclePredicate {
	want := strings.ToLower(strings.Join(strings.Fields(name), " "))
	return func(r *Record) bool {
		return strings.ToLower(strings.Join(strings.Fields(r.Species), " ")) == want
	}
}

func oracleByTaxon(value string) oraclePredicate {
	want := strings.ToLower(value)
	return func(r *Record) bool {
		for _, f := range []string{r.Phylum, r.Class, r.Order, r.Family, r.Genus} {
			if strings.ToLower(f) == want {
				return true
			}
		}
		return false
	}
}

func oracleByState(state string) oraclePredicate {
	want := strings.ToLower(state)
	return func(r *Record) bool { return strings.ToLower(r.State) == want }
}

// oracleQuery is the Query the struct filter replaced: decode every record,
// then test the composed closures, as web.Service.SearchRecords composed
// them from its non-blank filters.
func oracleQuery(t *testing.T, s *Store, p Predicate, opts QueryOptions) []*Record {
	t.Helper()
	var preds []oraclePredicate
	if p.Species != "" {
		preds = append(preds, oracleBySpeciesName(p.Species))
	}
	if p.State != "" {
		preds = append(preds, oracleByState(p.State))
	}
	if p.Taxon != "" {
		preds = append(preds, oracleByTaxon(p.Taxon))
	}
	pred := oracleAnd(preds...)
	var out []*Record
	if err := s.Scan(func(r *Record) bool {
		if pred(r) {
			out = append(out, r)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	order, err := RecordOrder(opts.OrderBy)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(out, order)
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	return out
}

// TestPredicateMatchesClosures runs the struct filter and the closures it
// replaced over a generated collection plus hand-made records whose cells
// hold non-ASCII case, Unicode whitespace, tabs, invalid UTF-8 and runes
// whose lower case changes length; both must return the same records in
// the same order.
func TestPredicateMatchesClosures(t *testing.T) {
	col, _ := smallCollection(t, 1200)
	odd := []*Record{
		{ID: "X1", Species: "  Hyla\tFABER ", State: "SÃO PAULO", Genus: "Hyla", Class: "Amphibia"},
		{ID: "X2", Species: "Hyla\u00a0faber", State: "são paulo", Family: "HYLIDAE"},
		{ID: "X3", Species: "hyla\u0085faber\n", State: "\u212aansas", Order: "\u212a"},
		{ID: "X4", Species: "\u0130stanbul frog", State: "\u0130L", Phylum: "Chordata"},
		{ID: "X5", Species: "Boana\xff sp", State: "S\xe3o Paulo", Genus: "Bo\xffana"},
		{ID: "X6", Species: "ÉLÉPHANT  de mer", State: "Paraná", Class: "Mammalia"},
		{ID: "X7", Species: "Hyla faber\v", State: "Sao Paulo", Genus: "hyla"},
		{ID: "X8"},
	}
	store := openStore(t)
	if err := store.PutAll(append(append([]*Record(nil), col.Records...), odd...)); err != nil {
		t.Fatal(err)
	}
	var preds []Predicate
	for i, r := range col.Records[:60] {
		preds = append(preds,
			Predicate{Species: r.Species},
			Predicate{Species: strings.ToUpper(r.Species)},
			Predicate{Species: " " + strings.ReplaceAll(r.Species, " ", " \t ") + "\n"},
			Predicate{State: r.State},
			Predicate{State: strings.ToUpper(r.State)},
			Predicate{Taxon: []string{r.Phylum, r.Class, r.Order, r.Family, r.Genus}[i%5]},
			Predicate{Taxon: strings.ToUpper(r.Genus), State: r.State},
			Predicate{Species: r.Species, State: r.State, Taxon: r.Class},
		)
	}
	for _, s := range []string{"hyla  FABER", "hyla faber", "Hyla\u00a0faber", "HYLA\tFABER", "hyla faber ", "\u0130stanbul FROG",
		"i\u0307stanbul frog", "boana\xff sp", "boana\ufffd sp", "élÉphant de MER", "hyla_faber", "hylafaber", " ", "\t"} {
		preds = append(preds, Predicate{Species: s}, Predicate{Species: s, State: "são paulo"})
	}
	for _, s := range []string{"são paulo", "SÃO PAULO", "São Paulo", "sao paulo", "k", "\u212aANSAS", "kansas", "i\u0307l",
		"\u0130l", "s\xe3o paulo", "s\ufffdo paulo", "paraná", "PARANÁ", " "} {
		preds = append(preds, Predicate{State: s})
	}
	for _, s := range []string{"hyla", "HYLIDAE", "k", "\u212a", "chordata", "bo\ufffdana", "AMPHIBIA", "mammalia", "x"} {
		preds = append(preds, Predicate{Taxon: s}, Predicate{Taxon: s, Species: "hyla faber"})
	}
	preds = append(preds, Predicate{})
	opts := []QueryOptions{{}, {OrderBy: "species"}, {OrderBy: "date", Limit: 3}, {OrderBy: "id", Limit: 1}}
	for i, p := range preds {
		o := opts[i%len(opts)]
		got, err := store.Query(p, o)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleQuery(t, store, p, o)
		if !slices.Equal(ids(got), ids(want)) {
			t.Fatalf("Query(%+q, %+v) = %v, closures give %v", p, o, ids(got), ids(want))
		}
	}
}

func ids(rs []*Record) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}
