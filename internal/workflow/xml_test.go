package workflow

import (
	"math/bits"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

func annotatedDef() *Definition {
	d := linearDef()
	d.Description = "detect outdated species names"
	d.Processors[0].Name = "Catalog_of_life"
	d.Processors[0].Config = map[string]string{"url": "http://localhost:9090", "fuzzy": "2"}
	when := time.Date(2013, 11, 12, 19, 58, 9, 767000000, time.UTC)
	d.Links[0].Target.Processor = "Catalog_of_life"
	d.Links[1].Source.Processor = "Catalog_of_life"
	d.AnnotateProcessor("Catalog_of_life", QualityKey("reputation"), "1", "expert", when)
	d.AnnotateProcessor("Catalog_of_life", QualityKey("availability"), "0.9", "expert", when)
	d.Annotations = append(d.Annotations, Annotation{Key: "author", Value: "FNJV curation team", Author: "cmbm", Date: when})
	return d
}

func TestXMLRoundTrip(t *testing.T) {
	d := annotatedDef()
	blob, err := MarshalXML(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalXML(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != d.ID || got.Name != d.Name || got.Description != d.Description {
		t.Fatalf("header lost: %+v", got)
	}
	if len(got.Processors) != 2 || got.Processors[0].Name != "Catalog_of_life" {
		t.Fatalf("processors lost: %+v", got.Processors)
	}
	p := got.Processors[0]
	if p.Config["url"] != "http://localhost:9090" || p.Config["fuzzy"] != "2" {
		t.Fatalf("config lost: %v", p.Config)
	}
	q := QualityAnnotations(p.Annotations)
	if q["reputation"] != "1" || q["availability"] != "0.9" {
		t.Fatalf("quality annotations lost: %v", q)
	}
	if !p.Annotations[0].Date.Equal(time.Date(2013, 11, 12, 19, 58, 9, 767000000, time.UTC)) {
		t.Fatalf("annotation date = %v", p.Annotations[0].Date)
	}
	if len(got.Links) != len(d.Links) {
		t.Fatalf("links lost: %d vs %d", len(got.Links), len(d.Links))
	}
	if len(got.Annotations) != 1 || got.Annotations[0].Value != "FNJV curation team" {
		t.Fatalf("workflow annotations lost: %+v", got.Annotations)
	}
	// The round-tripped definition must still validate.
	if err := Validate(got); err != nil {
		t.Fatalf("round-tripped definition invalid: %v", err)
	}
}

func TestXMLListing1Shape(t *testing.T) {
	// The serialized form must carry the paper's Listing 1 content: a
	// processor named Catalog_of_life annotated Q(reputation): 1 and
	// Q(availability): 0.9.
	blob, err := MarshalXML(annotatedDef())
	if err != nil {
		t.Fatal(err)
	}
	s := string(blob)
	for _, want := range []string{
		"<name>Catalog_of_life</name>",
		"Q(reputation): 1;",
		"Q(availability): 0.9;",
		"<annotationAssertion>",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("serialized workflow missing %q", want)
		}
	}
}

func TestXMLUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalXML([]byte("not xml at all <")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Annotation without a key separator.
	bad := `<workflow id="x" name="x" version="1"><annotations><annotationAssertion><text>noseparator</text><date></date></annotationAssertion></annotations></workflow>`
	if _, err := UnmarshalXML([]byte(bad)); err == nil {
		t.Fatal("keyless annotation accepted")
	}
	// Bad date.
	bad2 := `<workflow id="x" name="x" version="1"><annotations><annotationAssertion><text>k: v</text><date>yesterday</date></annotationAssertion></annotations></workflow>`
	if _, err := UnmarshalXML([]byte(bad2)); err == nil {
		t.Fatal("bad date accepted")
	}
}

func TestRepositoryPublishGet(t *testing.T) {
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	repo, err := NewRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	d := annotatedDef()
	v1, err := repo.Publish(d)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 {
		t.Fatalf("first version = %d", v1)
	}
	// Publishing again bumps the version.
	d.Description = "revised"
	v2, err := repo.Publish(d)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("second version = %d", v2)
	}
	got, err := repo.Get(d.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Description != "detect outdated species names" || got.Version != 1 {
		t.Fatalf("v1 = %q v%d", got.Description, got.Version)
	}
	latest, err := repo.Latest(d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if latest.Description != "revised" || latest.Version != 2 {
		t.Fatalf("latest = %q v%d", latest.Description, latest.Version)
	}
}

func TestRepositoryErrors(t *testing.T) {
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	repo, err := NewRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Get("missing", 1); err == nil {
		t.Fatal("Get(missing) succeeded")
	}
	if _, err := repo.Latest("missing"); err == nil {
		t.Fatal("Latest(missing) succeeded")
	}
	// Invalid definitions are rejected at publish time.
	bad := annotatedDef()
	bad.Name = ""
	if _, err := repo.Publish(bad); err == nil {
		t.Fatal("invalid definition published")
	}
	noID := annotatedDef()
	noID.ID = ""
	if _, err := repo.Publish(noID); err == nil {
		t.Fatal("definition without ID published")
	}
}

// TestLatestVersionProbes: the latest version is found by point probes, a
// number logarithmic in the versions stored — every detection publishes one.
// It is checked on a repository at 1, 2 and 1 500 published versions, and on
// a stand-in for the key set at sizes past 999 999, where the key's "%06d"
// version widens to seven digits and key order stops being version order,
// which the probes do not depend on.
func TestLatestVersionProbes(t *testing.T) {
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	repo, err := NewRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	d := annotatedDef()
	for n := 1; n <= 1500; n++ {
		if v, err := repo.Publish(d); err != nil || v != n {
			t.Fatalf("publish %d: version %d, %v", n, v, err)
		}
		if n == 1 || n == 2 || n == 1500 {
			if got, err := repo.LatestVersion(d.ID); err != nil || got != n {
				t.Fatalf("%d versions: LatestVersion = %d, %v", n, got, err)
			}
		}
	}
	if got, err := repo.Latest(d.ID); err != nil || got.Version != 1500 {
		t.Fatalf("Latest = %+v, %v", got, err)
	}

	for _, n := range []int{0, 1, 2, 3, 1500, 999_999, 1_000_000, 1_000_001, 1 << 24} {
		probes := 0
		got := latestDense(func(v int) bool {
			probes++
			return v >= 1 && v <= n
		})
		if got != n {
			t.Errorf("latestDense over %d versions = %d", n, got)
		}
		if limit := 2*bits.Len(uint(n)) + 2; probes > limit {
			t.Errorf("latestDense over %d versions: %d probes, want <= %d", n, probes, limit)
		}
	}
}

func TestRepositorySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := NewRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Publish(annotatedDef()); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	repo2, err := NewRepository(db2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := repo2.Latest("wf-linear")
	if err != nil {
		t.Fatal(err)
	}
	q := QualityAnnotations(got.Processors[0].Annotations)
	if q["reputation"] != "1" {
		t.Fatalf("annotations lost across reopen: %v", q)
	}
}
