package shard

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/fnjv"
	"repro/internal/storage"
)

// speciesPair is one visit of a ScanSpecies walk.
type speciesPair struct{ id, species string }

// TestScanSpeciesIsTheScanProjection: ScanSpecies(tenant) visits exactly what
// Scan visits, projected to (ID, species) and filtered to the tenant's ID
// prefix, in the same order — for one store and for a 4-shard router, for the
// default tenant and for a tenant whose neighbours' IDs sort right beside its
// own ("t1-x", "t10:…"). Stopping early yields a prefix of the same walk.
func TestScanSpeciesIsTheScanProjection(t *testing.T) {
	var recs []*fnjv.Record
	for i := 0; i < 90; i++ {
		species := fmt.Sprintf("Hyla sp%c", 'a'+i%7)
		if i%11 == 0 {
			species = "" // blank species are visited too: the projection filters nothing
		}
		for _, id := range []string{
			fmt.Sprintf("xc-%03d", i),
			Qualify("t1", fmt.Sprintf("xc-%03d", i)),
			Qualify("t10", fmt.Sprintf("xc-%03d", i)),
			fmt.Sprintf("t1-x%03d", i),
		} {
			recs = append(recs, &fnjv.Record{ID: id, Species: species, State: "SP"})
		}
	}
	db, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	store, err := fnjv.NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	router := openCluster(t, t.TempDir(), 4).Records()

	for name, records := range map[string]fnjv.Records{"store": store, "4 shards": router} {
		if err := records.PutAll(recs); err != nil {
			t.Fatal(err)
		}
		for _, tenant := range []string{"", "t1", "t10", "nobody"} {
			prefix := Qualify(tenant, "")
			var want []speciesPair
			if err := records.Scan(func(r *fnjv.Record) bool {
				if strings.HasPrefix(r.ID, prefix) {
					want = append(want, speciesPair{r.ID, r.Species})
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			var got []speciesPair
			if err := records.ScanSpecies(tenant, func(id, species string) bool {
				got = append(got, speciesPair{id, species})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s, tenant %q: ScanSpecies visited %d pairs, the projected Scan %d; first divergence %v",
					name, tenant, len(got), len(want), firstDiff(got, want))
			}
			if tenant == "nobody" && len(got) != 0 {
				t.Errorf("%s: a tenant with no records visited %v", name, got)
			}
			const stop = 5
			var head []speciesPair
			if err := records.ScanSpecies(tenant, func(id, species string) bool {
				head = append(head, speciesPair{id, species})
				return len(head) < stop
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(head, want[:min(stop, len(want))]) {
				t.Errorf("%s, tenant %q: stopping after %d visited %v", name, tenant, stop, head)
			}
		}
	}
}

func firstDiff(a, b []speciesPair) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("at %d: %v vs %v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}
