package taxonomy

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func demoChecklist(t *testing.T) *Checklist {
	t.Helper()
	cl := NewChecklist()
	add := func(id, genus, epithet, group string) *Taxon {
		tx := &Taxon{
			ID:     id,
			Name:   Name{Genus: genus, Epithet: epithet},
			Status: StatusAccepted,
			Group:  group,
			Classification: Classification{
				Phylum: "Chordata", Class: "Amphibia", Order: "Anura", Family: "Microhylidae",
			},
		}
		if err := cl.Add(tx); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	add("T1", "Elachistocleis", "ovalis", "amphibians")
	add("T2", "Scinax", "fuscomarginatus", "amphibians")
	add("T3", "Hyla", "faber", "amphibians")
	return cl
}

func TestChecklistResolveAccepted(t *testing.T) {
	cl := demoChecklist(t)
	res, err := cl.Resolve(context.Background(), "Scinax fuscomarginatus")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusAccepted || res.AcceptedName != "Scinax fuscomarginatus" || outdated(res) {
		t.Fatalf("Resolve accepted = %+v", res)
	}
	// Case/whitespace robustness.
	res, err = cl.Resolve(context.Background(), "  scinax  FUSCOMARGINATUS ")
	if err != nil || res.Status != StatusAccepted {
		t.Fatalf("normalized resolve = %+v, %v", res, err)
	}
}

func TestChecklistDeprecate(t *testing.T) {
	cl := demoChecklist(t)
	when := time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC)
	repl := &Taxon{
		ID:     "T9",
		Name:   Name{Genus: "Elachistocleis", Epithet: "cesarii"},
		Status: StatusAccepted,
		Group:  "amphibians",
	}
	if err := cl.Deprecate("Elachistocleis ovalis", repl, when, "Caramaschi (2010)"); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Resolve(context.Background(), "Elachistocleis ovalis")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSynonym || !outdated(res) {
		t.Fatalf("deprecated name status = %v", res.Status)
	}
	if res.AcceptedName != "Elachistocleis cesarii" || res.AcceptedID != "T9" {
		t.Fatalf("accepted = %q (%s)", res.AcceptedName, res.AcceptedID)
	}
	if len(res.History) != 1 || res.History[0].Reference != "Caramaschi (2010)" {
		t.Fatalf("history = %+v", res.History)
	}
	// The replacement itself resolves as accepted.
	res, err = cl.Resolve(context.Background(), "Elachistocleis cesarii")
	if err != nil || res.Status != StatusAccepted {
		t.Fatalf("replacement resolve = %+v, %v", res, err)
	}
	// Deprecating an unknown name fails.
	if err := cl.Deprecate("Nope nope", repl, when, "x"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("Deprecate unknown: %v", err)
	}
}

func TestChecklistProvisional(t *testing.T) {
	cl := demoChecklist(t)
	when := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := cl.MarkProvisional("Hyla faber", when, "ref"); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Resolve(context.Background(), "Hyla faber")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusProvisional || !outdated(res) || res.AcceptedName != "" {
		t.Fatalf("provisional resolve = %+v", res)
	}
}

func TestChecklistUnknown(t *testing.T) {
	cl := demoChecklist(t)
	res, err := cl.Resolve(context.Background(), "Boana albopunctata")
	if !errors.Is(err, ErrUnknownName) {
		t.Fatalf("Resolve unknown: %v", err)
	}
	if res.Status != StatusUnknown {
		t.Fatalf("status = %v", res.Status)
	}
	if _, err := cl.Resolve(context.Background(), "notabinomial"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("unparseable: %v", err)
	}
}

func TestChecklistResolveFuzzy(t *testing.T) {
	cl := demoChecklist(t)
	res, err := cl.ResolveFuzzy("Scinax fuscomarginatis", 2) // 1 typo
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fuzzy || res.Distance != 1 || res.AcceptedName != "Scinax fuscomarginatus" {
		t.Fatalf("fuzzy resolve = %+v", res)
	}
	// Exact hits are not marked fuzzy.
	res, err = cl.ResolveFuzzy("Hyla faber", 2)
	if err != nil || res.Fuzzy {
		t.Fatalf("exact-through-fuzzy = %+v, %v", res, err)
	}
	// Beyond the budget: unknown.
	if _, err := cl.ResolveFuzzy("Xxxxx yyyyy", 2); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("far name: %v", err)
	}
}

func TestChecklistDuplicateAdd(t *testing.T) {
	cl := demoChecklist(t)
	err := cl.Add(&Taxon{ID: "T8", Name: Name{Genus: "Hyla", Epithet: "faber"}})
	if err == nil {
		t.Fatal("duplicate name accepted")
	}
	err = cl.Add(&Taxon{ID: "T1", Name: Name{Genus: "Novus", Epithet: "novus"}})
	if err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := cl.Add(&Taxon{Name: Name{Genus: "Novus", Epithet: "novus"}}); err == nil {
		t.Fatal("empty ID accepted")
	}
}

func TestChecklistCounts(t *testing.T) {
	cl := demoChecklist(t)
	if cl.Len() != 3 || cl.AcceptedCount() != 3 {
		t.Fatalf("Len=%d Accepted=%d", cl.Len(), cl.AcceptedCount())
	}
	names := cl.Names()
	if len(names) != 3 || names[0] != "Elachistocleis ovalis" {
		t.Fatalf("Names = %v", names)
	}
	if _, ok := cl.Taxon("T2"); !ok {
		t.Fatal("Taxon(T2) missing")
	}
}

func TestGenerateCalibration(t *testing.T) {
	gen, err := Generate(GeneratorSpec{Species: 1929, OutdatedFraction: 134.0 / 1929.0, ProvisionalFraction: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(gen.HistoricalNames); got != 1929 {
		t.Fatalf("historical names = %d, want 1929", got)
	}
	if got := len(gen.OutdatedNames); got != 134 {
		t.Fatalf("outdated names = %d, want 134", got)
	}
	// Every outdated name must actually resolve as outdated; every other
	// historical name as accepted.
	for _, n := range gen.HistoricalNames {
		res, err := gen.Checklist.Resolve(context.Background(), n)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", n, err)
		}
		if gen.OutdatedNames[n] != outdated(res) {
			t.Fatalf("name %q: planted outdated=%v, resolver says %v (%v)", n, gen.OutdatedNames[n], outdated(res), res.Status)
		}
		if res.Status == StatusSynonym && res.AcceptedName == "" {
			t.Fatalf("synonym %q has no accepted name", n)
		}
	}
	// Groups must be recorded for every historical name.
	for _, n := range gen.HistoricalNames {
		if gen.GroupOf[n] == "" {
			t.Fatalf("name %q has no group", n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GeneratorSpec{Species: 200, OutdatedFraction: 0.07, Seed: 11}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.HistoricalNames) != len(b.HistoricalNames) {
		t.Fatal("non-deterministic sizes")
	}
	for i := range a.HistoricalNames {
		if a.HistoricalNames[i] != b.HistoricalNames[i] {
			t.Fatalf("name %d differs: %q vs %q", i, a.HistoricalNames[i], b.HistoricalNames[i])
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GeneratorSpec{Species: 0}); err == nil {
		t.Fatal("zero species accepted")
	}
	if _, err := Generate(GeneratorSpec{Species: 10, OutdatedFraction: 1.5}); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	if _, err := Generate(GeneratorSpec{Species: 10, ProvisionalFraction: -0.1}); err == nil {
		t.Fatal("negative fraction accepted")
	}
}

func TestStatusString(t *testing.T) {
	if StatusAccepted.String() != "accepted" || StatusSynonym.String() != "synonym" ||
		StatusProvisional.String() != "provisionally accepted" || StatusUnknown.String() != "unknown" {
		t.Fatal("status strings wrong")
	}
}

// TestChecklistBatchMatchesResolve: the checklist's batch forms answer every
// name exactly as Resolve does — resolution and error string — for every name
// of a generated checklist (accepted, synonym, provisional), the names field
// biologists used, and names it does not know or cannot parse.
func TestChecklistBatchMatchesResolve(t *testing.T) {
	gen, err := Generate(GeneratorSpec{Species: 300, OutdatedFraction: 0.1, ProvisionalFraction: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cl := gen.Checklist
	names := append(cl.Names(), gen.HistoricalNames...)
	names = append(names, "Nomen nescio", "  hyla   FABER ", "not even parseable!", "", "Hyla")
	ctx := context.Background()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	details := cl.BatchResolveDetail(ctx, names)
	plain, err := cl.BatchResolve(ctx, names)
	if err != nil || len(details) != len(names) || len(plain) != len(names) {
		t.Fatalf("batch of %d names: %d details, %d resolutions, %v", len(names), len(details), len(plain), err)
	}
	for i, name := range names {
		want, wantErr := cl.Resolve(ctx, name)
		if !reflect.DeepEqual(details[i].Resolution, want) || errText(details[i].Err) != errText(wantErr) {
			t.Errorf("%q: detail %+v (%v), Resolve %+v (%v)", name, details[i].Resolution, details[i].Err, want, wantErr)
		}
		if !reflect.DeepEqual(plain[i], want) {
			t.Errorf("%q: BatchResolve %+v, Resolve %+v", name, plain[i], want)
		}
	}
	if got := DetailedBatch(cl); got != DetailedBatchResolver(cl) {
		t.Errorf("the checklist probes as %T, want itself", got)
	}
	// A cache over the checklist keeps each name's own error on its batch path.
	cached := NewCachingResolver(cl, 0).BatchResolveDetail(ctx, names)
	for i, name := range names {
		_, wantErr := cl.Resolve(ctx, name)
		if errText(cached[i].Err) != errText(wantErr) {
			t.Errorf("%q: cached batch error %q, Resolve %q", name, errText(cached[i].Err), errText(wantErr))
		}
	}
}

// outdated reports whether a resolved name should be repaired: it resolved,
// but not to an accepted spelling of itself.
func outdated(res Resolution) bool {
	return res.Status == StatusSynonym || res.Status == StatusProvisional
}
