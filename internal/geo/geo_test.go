package geo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDistanceKm(t *testing.T) {
	campinas := Point{-22.9056, -47.0608}
	saoPaulo := Point{-23.5505, -46.6333}
	d := DistanceKm(campinas, saoPaulo)
	if d < 75 || d < 0 || d > 95 {
		t.Fatalf("Campinas–São Paulo = %.1f km, want ≈83", d)
	}
	if DistanceKm(campinas, campinas) != 0 {
		t.Fatal("distance to self nonzero")
	}
	// Quarter of Earth circumference pole-to-equator.
	d = DistanceKm(Point{0, 0}, Point{90, 0})
	if math.Abs(d-10007.5) > 10 {
		t.Fatalf("pole-equator = %.1f km, want ≈10007", d)
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		p := Point{Lat: float64(a%180) - 90, Lon: float64(a%360) - 180}
		q := Point{Lat: float64(b%180) - 90, Lon: float64(b%360) - 180}
		d1, d2 := DistanceKm(p, q), DistanceKm(q, p)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointValid(t *testing.T) {
	if !(Point{0, 0}).Valid() || !(Point{-90, 180}).Valid() {
		t.Fatal("legal points reported invalid")
	}
	if (Point{91, 0}).Valid() || (Point{0, -181}).Valid() {
		t.Fatal("illegal points reported valid")
	}
}

func TestCentroid(t *testing.T) {
	c := Centroid([]Point{{0, 0}, {2, 2}, {4, 4}})
	if c.Lat != 2 || c.Lon != 2 {
		t.Fatalf("centroid = %v", c)
	}
	if (Centroid(nil) != Point{}) {
		t.Fatal("empty centroid not zero")
	}
}

func TestGazetteerResolve(t *testing.T) {
	g := NewGazetteer()
	g.Add(Place{Country: "Brasil", State: "São Paulo", City: "Campinas", Location: Point{-22.9, -47.06}, UncertaintyKm: 2})
	g.Add(Place{Country: "Brasil", State: "Bahia", City: "Bom Jesus", Location: Point{-13, -39}, UncertaintyKm: 5})
	g.Add(Place{Country: "Brasil", State: "Goiás", City: "Bom Jesus", Location: Point{-18, -49}, UncertaintyKm: 5})

	p, err := g.Resolve("Brasil", "São Paulo", "Campinas")
	if err != nil {
		t.Fatal(err)
	}
	if p.Location.Lat != -22.9 {
		t.Fatalf("resolved %v", p)
	}
	// Case and whitespace insensitive.
	if _, err := g.Resolve("BRASIL", "são  paulo", "CAMPINAS"); err != nil {
		t.Fatalf("normalized resolve failed: %v", err)
	}
	// City-only fallback when state is missing and unambiguous.
	if _, err := g.Resolve("Brasil", "", "Campinas"); err != nil {
		t.Fatalf("city-only resolve failed: %v", err)
	}
	// Ambiguity detection.
	if _, err := g.Resolve("Brasil", "", "Bom Jesus"); !errors.Is(err, ErrPlaceAmbiguous) {
		t.Fatalf("ambiguous resolve: %v", err)
	}
	// Disambiguated by state.
	p, err = g.Resolve("Brasil", "Goiás", "Bom Jesus")
	if err != nil {
		t.Fatal(err)
	}
	if p.Location.Lat != -18 {
		t.Fatalf("state-disambiguated resolve = %v", p)
	}
	// Unknown city.
	if _, err := g.Resolve("Brasil", "São Paulo", "Atlantis"); !errors.Is(err, ErrPlaceUnknown) {
		t.Fatalf("unknown resolve: %v", err)
	}
	if _, err := g.Resolve("Brasil", "São Paulo", ""); !errors.Is(err, ErrPlaceUnknown) {
		t.Fatalf("empty city: %v", err)
	}
}

func TestSyntheticGazetteer(t *testing.T) {
	g := SyntheticGazetteer(30, 5)
	if g.Len() < 300 {
		t.Fatalf("gazetteer has %d entries, want ≥300", g.Len())
	}
	// Campinas is always present.
	p, err := g.Resolve("Brasil", "São Paulo", "Campinas")
	if err != nil {
		t.Fatalf("Campinas: %v", err)
	}
	if math.Abs(p.Location.Lat+22.9056) > 0.01 {
		t.Fatalf("Campinas at %v", p.Location)
	}
	// Every generated place lies inside its state's box.
	for _, st := range BrazilStates {
		for _, pl := range g.PlacesIn(st.Name) {
			if pl.City == "Campinas" && st.Name == "São Paulo" {
				continue // hand-placed landmark, not box-constrained
			}
			if l := pl.Location; l.Lat < st.Box.MinLat || l.Lat > st.Box.MaxLat || l.Lon < st.Box.MinLon || l.Lon > st.Box.MaxLon {
				t.Fatalf("place %q (%v) outside state %q box", pl.City, pl.Location, st.Name)
			}
			if pl.UncertaintyKm <= 0 {
				t.Fatalf("place %q has nonpositive uncertainty", pl.City)
			}
		}
	}
	// Determinism.
	g2 := SyntheticGazetteer(30, 5)
	if g.Len() != g2.Len() {
		t.Fatal("synthetic gazetteer not deterministic")
	}
	// PlacesIn orders on every field, so two builds list each state's
	// places in one order.
	for _, st := range BrazilStates {
		if !slices.Equal(g.PlacesIn(st.Name), g2.PlacesIn(st.Name)) {
			t.Fatalf("synthetic gazetteer not deterministic in %q", st.Name)
		}
	}
}

func makeCluster(rng *rand.Rand, species string, center Point, n int, spreadKm float64) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		obs[i] = Observation{
			RecordID: fmt.Sprintf("%s-%03d", species, i),
			Species:  species,
			Location: Point{
				Lat: center.Lat + (rng.Float64()-0.5)*spreadKm/111,
				Lon: center.Lon + (rng.Float64()-0.5)*spreadKm/111,
			},
		}
	}
	return obs
}

func TestDetectOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	obs := makeCluster(rng, "Hyla faber", Point{-22.9, -47.0}, 30, 80)
	// One record 2000+ km away: a misidentification.
	obs = append(obs, Observation{RecordID: "Hyla faber-FAR", Species: "Hyla faber", Location: Point{-3.1, -60.0}})
	// Another species, all clustered: no outliers.
	obs = append(obs, makeCluster(rng, "Scinax fuscomarginatus", Point{-20.0, -45.0}, 20, 60)...)

	out := DetectOutliers(obs, OutlierParams{})
	if len(out) != 1 {
		t.Fatalf("DetectOutliers flagged %d records, want 1: %+v", len(out), out)
	}
	if out[0].RecordID != "Hyla faber-FAR" {
		t.Fatalf("flagged %q", out[0].RecordID)
	}
	if out[0].Score < 1 {
		t.Fatalf("score %.2f < 1", out[0].Score)
	}
	if out[0].DistanceKm < 1500 {
		t.Fatalf("distance %.1f km, want >1500", out[0].DistanceKm)
	}
}

func TestDetectOutliersSmallGroupsSkipped(t *testing.T) {
	obs := []Observation{
		{RecordID: "a", Species: "Rare species", Location: Point{-22, -47}},
		{RecordID: "b", Species: "Rare species", Location: Point{10, 10}},
	}
	if out := DetectOutliers(obs, OutlierParams{MinRecords: 5}); len(out) != 0 {
		t.Fatalf("small group produced outliers: %+v", out)
	}
}

func TestDetectOutliersIgnoresInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	obs := makeCluster(rng, "Sp", Point{-22, -47}, 10, 50)
	obs = append(obs,
		Observation{RecordID: "bad-coord", Species: "Sp", Location: Point{999, 999}},
		Observation{RecordID: "no-species", Species: "", Location: Point{-22, -47}},
	)
	out := DetectOutliers(obs, OutlierParams{})
	for _, o := range out {
		if o.RecordID == "bad-coord" || o.RecordID == "no-species" {
			t.Fatalf("invalid observation %q was scored", o.RecordID)
		}
	}
}

func TestDetectOutliersDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	obs := makeCluster(rng, "Sp", Point{-22, -47}, 20, 40)
	obs = append(obs,
		Observation{RecordID: "far-b", Species: "Sp", Location: Point{-5, -60}},
		Observation{RecordID: "far-a", Species: "Sp", Location: Point{-5, -60}},
	)
	out := DetectOutliers(obs, OutlierParams{})
	if len(out) != 2 {
		t.Fatalf("flagged %d, want 2", len(out))
	}
	if out[0].RecordID != "far-a" || out[1].RecordID != "far-b" {
		t.Fatalf("tie order = %q,%q", out[0].RecordID, out[1].RecordID)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %f", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %f", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("empty median = %f", m)
	}
}

// Len, which only the tests read, reports the number of entries.
func (g *Gazetteer) Len() int {
	n := 0
	for _, v := range g.places {
		n += len(v)
	}
	return n
}
