package linkeddata

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/fnjv"
	"repro/internal/taxonomy"
)

func TestStoreAddMatch(t *testing.T) {
	s := NewStore()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Add(Triple{Subject: "s1", Predicate: "p1", Object: Literal("x")}))
	must(s.Add(Triple{Subject: "s1", Predicate: "p2", Object: IRI("s2")}))
	must(s.Add(Triple{Subject: "s2", Predicate: "p1", Object: Literal("x")}))
	// Duplicate ignored.
	must(s.Add(Triple{Subject: "s1", Predicate: "p1", Object: Literal("x")}))
	if len(s.triples) != 3 {
		t.Fatalf("%d triples", len(s.triples))
	}
	if got := s.Match("s1", "", Term{}); len(got) != 2 {
		t.Fatalf("subject match = %d", len(got))
	}
	if got := s.Match("", "p1", Term{}); len(got) != 2 {
		t.Fatalf("predicate match = %d", len(got))
	}
	if got := s.Match("", "", Literal("x")); len(got) != 2 {
		t.Fatalf("object match = %d", len(got))
	}
	if got := s.Match("s1", "p1", Literal("x")); len(got) != 1 {
		t.Fatalf("exact match = %d", len(got))
	}
	if got := s.Match("", "", Term{}); len(got) != 3 {
		t.Fatalf("full scan = %d", len(got))
	}
	if got := s.Match("zz", "", Term{}); len(got) != 0 {
		t.Fatalf("miss = %d", len(got))
	}
	// Literal and IRI objects with the same text are distinct.
	must(s.Add(Triple{Subject: "s3", Predicate: "p3", Object: IRI("x")}))
	if got := s.Match("", "", Literal("x")); len(got) != 2 {
		t.Fatalf("literal/IRI confusion: %d", len(got))
	}
	// Incomplete triples rejected.
	if err := s.Add(Triple{Predicate: "p", Object: Literal("x")}); err == nil {
		t.Fatal("empty subject accepted")
	}
	if err := s.Add(Triple{Subject: "s", Object: Literal("x")}); err == nil {
		t.Fatal("empty predicate accepted")
	}
	if err := s.Add(Triple{Subject: "s", Predicate: "p"}); err == nil {
		t.Fatal("zero object accepted")
	}
}

func TestSubjects(t *testing.T) {
	s := NewStore()
	s.Add(Triple{Subject: "b", Predicate: "p", Object: Literal("v")})
	s.Add(Triple{Subject: "a", Predicate: "p", Object: Literal("v")})
	s.Add(Triple{Subject: "c", Predicate: "p", Object: Literal("other")})
	got := s.Subjects("p", Literal("v"))
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Subjects = %v", got)
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	s := NewStore()
	s.Add(Triple{Subject: "https://x/s", Predicate: "https://x/p", Object: Literal("line1\nline2 \"quoted\" \\slash")})
	s.Add(Triple{Subject: "https://x/s", Predicate: "https://x/q", Object: IRI("https://x/o")})
	var buf bytes.Buffer
	if err := s.WriteNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.triples) != 2 {
		t.Fatalf("round trip holds %d triples", len(got.triples))
	}
	m := got.Match("https://x/s", "https://x/p", Term{})
	if len(m) != 1 || m[0].Object.Value() != "line1\nline2 \"quoted\" \\slash" {
		t.Fatalf("literal round trip = %+v", m)
	}
	// Comments and blank lines tolerated.
	got2, err := ReadNTriples(strings.NewReader("# comment\n\n<https://a> <https://b> <https://c> .\n"))
	if err != nil || len(got2.triples) != 1 {
		t.Fatalf("comment parse: %v %d", err, len(got2.triples))
	}
	// Garbage rejected.
	for _, bad := range []string{
		"no brackets at all .",
		"<https://a> <https://b> banana .",
		"<https://a> <https://b> <https://c>",
		"<https://a <https://b> <https://c> .",
	} {
		if _, err := ReadNTriples(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func demoChecklist(t *testing.T) *taxonomy.Checklist {
	t.Helper()
	cl := taxonomy.NewChecklist()
	for i, n := range []string{"Elachistocleis ovalis", "Scinax fuscomarginatus", "Hyla faber"} {
		name, err := taxonomy.ParseName(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Add(&taxonomy.Taxon{
			ID: string(rune('A' + i)), Name: name, Status: taxonomy.StatusAccepted,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func TestExtractShadow(t *testing.T) {
	cl := demoChecklist(t)
	doc := Document{
		ID: "doc1", Title: "Reproductive biology", Community: "ecology",
		Text: "We observed SCINAX FUSCOMARGINATUS near ponds, together with Hyla faber males.",
	}
	sh := ExtractShadow(doc, cl)
	if len(sh.Entities) != 2 {
		t.Fatalf("entities = %v", sh.Entities)
	}
	if _, ok := sh.Entities["Scinax fuscomarginatus"]; !ok {
		t.Fatal("case-insensitive match failed")
	}
	if _, ok := sh.Entities["Elachistocleis ovalis"]; ok {
		t.Fatal("phantom entity")
	}
}

func TestCrossReferences(t *testing.T) {
	cl := demoChecklist(t)
	docs := map[string]Document{
		"eco1": {ID: "eco1", Community: "ecology", Text: "Hyla faber breeding ponds"},
		"tax1": {ID: "tax1", Community: "taxonomy", Text: "revision of Hyla faber group"},
		"eco2": {ID: "eco2", Community: "ecology", Text: "Hyla faber diet"},
		"bio1": {ID: "bio1", Community: "bioacoustics", Text: "calls of Scinax fuscomarginatus"},
	}
	var shadows []Shadow
	for _, d := range docs {
		shadows = append(shadows, ExtractShadow(d, cl))
	}
	refs := CrossReferences(shadows, docs)
	// Hyla faber: eco1-tax1 and eco2-tax1 (eco1-eco2 same community, skipped).
	if len(refs) != 2 {
		t.Fatalf("refs = %+v", refs)
	}
	for _, r := range refs {
		if r.Entity != "Hyla faber" {
			t.Fatalf("entity = %q", r.Entity)
		}
		if r.CommunityA == r.CommunityB {
			t.Fatalf("same-community ref: %+v", r)
		}
	}
	// Deterministic ordering.
	if refs[0].DocA > refs[1].DocA {
		t.Fatal("refs unordered")
	}
}

func TestExportRecordAndQuery(t *testing.T) {
	s := NewStore()
	lat, lon := -22.9, -47.06
	rec := &fnjv.Record{
		ID: "FNJV-00001", Species: "Elachistocleis ovalis", Class: "Amphibia",
		City: "Campinas", State: "São Paulo",
		CollectDate: time.Date(1978, 11, 3, 0, 0, 0, 0, time.UTC),
		Latitude:    &lat, Longitude: &lon, Recordist: "J. Vielliard",
	}
	if err := ExportRecord(s, rec, "Elachistocleis cesarii"); err != nil {
		t.Fatal(err)
	}
	iri := RecordIRI("FNJV-00001")
	if got := s.Match(iri, DwcScientific, Term{}); len(got) != 1 || got[0].Object.Value() != "Elachistocleis ovalis" {
		t.Fatalf("scientificName = %+v", got)
	}
	if got := s.Match(iri, DwcAccepted, Term{}); len(got) != 1 || got[0].Object.Value() != "Elachistocleis cesarii" {
		t.Fatalf("acceptedName = %+v", got)
	}
	if got := s.Match(iri, DwcLat, Term{}); len(got) != 1 || got[0].Object.Value() != "-22.90000" {
		t.Fatalf("lat = %+v", got)
	}
	// Both historical and curated names find the record.
	if got := RecordsMentioning(s, "Elachistocleis ovalis"); len(got) != 1 {
		t.Fatalf("mentioning old = %v", got)
	}
	if got := RecordsMentioning(s, "Elachistocleis cesarii"); len(got) != 1 {
		t.Fatalf("mentioning new = %v", got)
	}
	if got := RecordsMentioning(s, "Nobody nobody"); len(got) != 0 {
		t.Fatalf("mentioning phantom = %v", got)
	}
	if got := s.Match(iri, DwcLocality, Term{}); len(got) != 1 || !strings.Contains(got[0].Object.Value(), "Campinas") {
		t.Fatalf("locality = %+v", got)
	}
	// Curated name equal to stored name adds no accepted triple.
	s2 := NewStore()
	if err := ExportRecord(s2, rec, rec.Species); err != nil {
		t.Fatal(err)
	}
	if got := s2.Match(RecordIRI("FNJV-00001"), DwcAccepted, Term{}); len(got) != 0 {
		t.Fatalf("spurious accepted triple: %+v", got)
	}
}

func TestExportDocumentAndBridge(t *testing.T) {
	cl := demoChecklist(t)
	s := NewStore()
	rec := &fnjv.Record{ID: "FNJV-00002", Species: "Hyla faber"}
	if err := ExportRecord(s, rec, ""); err != nil {
		t.Fatal(err)
	}
	doc := Document{ID: "paper42", Title: "Calls of Hyla faber", Community: "bioacoustics",
		Text: "analysis of Hyla faber advertisement calls"}
	sh := ExtractShadow(doc, cl)
	if err := ExportDocument(s, doc, sh, "https://fnjv.example/doc/"); err != nil {
		t.Fatal(err)
	}
	// The entity bridges literature and the collection.
	subjects := s.Subjects(DwcScientific, Literal("Hyla faber"))
	if len(subjects) != 2 {
		t.Fatalf("bridge subjects = %v", subjects)
	}
	recs := RecordsMentioning(s, "Hyla faber")
	if len(recs) != 1 || recs[0] != RecordIRI("FNJV-00002") {
		t.Fatalf("records mentioning = %v", recs)
	}
}

func TestTermRendering(t *testing.T) {
	if IRI("https://x").NTriples() != "<https://x>" {
		t.Fatal("IRI rendering")
	}
	if Literal(`a"b`).NTriples() != `"a\"b"` {
		t.Fatalf("literal escaping: %s", Literal(`a"b`).NTriples())
	}
	if !(Term{}).Zero() || IRI("x").Zero() || Literal("").Zero() {
		t.Fatal("Zero detection")
	}
	tr := Triple{Subject: "s", Predicate: "p", Object: Literal("o")}
	if tr.NTriples() != `<s> <p> "o" .` {
		t.Fatalf("triple rendering: %s", tr.NTriples())
	}
}
