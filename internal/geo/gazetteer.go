package geo

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Place is one gazetteer entry: a named location with a representative
// coordinate and an uncertainty radius (legacy locality descriptions like
// "mata próxima ao rio" geocode with multi-km uncertainty).
type Place struct {
	Country       string
	State         string
	City          string
	Location      Point
	UncertaintyKm float64
}

// Key returns the normalized "country/state/city" lookup key.
func (p Place) Key() string {
	return normalizePlace(p.Country) + "/" + normalizePlace(p.State) + "/" + normalizePlace(p.City)
}

func normalizePlace(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// Gazetteer resolves place names to coordinates — the stage-1 substitute for
// the authoritative geographic sources the paper used to add coordinates to
// records made "before the advent of GPS".
type Gazetteer struct {
	places map[string][]*Place // key -> entries (ambiguity is possible)
	byCity map[string][]*Place // city-only key, for vague localities
}

// Lookup errors.
var (
	ErrPlaceUnknown   = errors.New("geo: unknown place")
	ErrPlaceAmbiguous = errors.New("geo: ambiguous place")
)

// NewGazetteer builds an empty gazetteer.
func NewGazetteer() *Gazetteer {
	return &Gazetteer{
		places: make(map[string][]*Place),
		byCity: make(map[string][]*Place),
	}
}

// Add registers a place.
func (g *Gazetteer) Add(p Place) {
	cp := p
	g.places[cp.Key()] = append(g.places[cp.Key()], &cp)
	g.byCity[normalizePlace(cp.City)] = append(g.byCity[normalizePlace(cp.City)], &cp)
}

// Resolve geocodes country/state/city. Missing state falls back to a
// city-only search; multiple candidates yield ErrPlaceAmbiguous (the paper's
// "location name was too vague" case that needs a human curator).
func (g *Gazetteer) Resolve(country, state, city string) (Place, error) {
	if city == "" {
		return Place{}, fmt.Errorf("%w: empty city", ErrPlaceUnknown)
	}
	if country != "" && state != "" {
		key := normalizePlace(country) + "/" + normalizePlace(state) + "/" + normalizePlace(city)
		hits := g.places[key]
		switch len(hits) {
		case 0:
			// fall through to city-only search
		case 1:
			return *hits[0], nil
		default:
			return Place{}, fmt.Errorf("%w: %q has %d gazetteer entries", ErrPlaceAmbiguous, key, len(hits))
		}
	}
	hits := g.byCity[normalizePlace(city)]
	// Filter by whatever qualifiers we do have.
	var matches []*Place
	for _, h := range hits {
		if country != "" && normalizePlace(h.Country) != normalizePlace(country) {
			continue
		}
		if state != "" && normalizePlace(h.State) != normalizePlace(state) {
			continue
		}
		matches = append(matches, h)
	}
	switch len(matches) {
	case 0:
		return Place{}, fmt.Errorf("%w: %s/%s/%s", ErrPlaceUnknown, country, state, city)
	case 1:
		return *matches[0], nil
	default:
		return Place{}, fmt.Errorf("%w: %q matches %d places", ErrPlaceAmbiguous, city, len(matches))
	}
}

// BrazilStates lists the states used by the synthetic gazetteer with rough
// bounding boxes (the FNJV core collection is from Brazil / the Neotropics).
var BrazilStates = []struct {
	Name string
	Box  Rect
}{
	{"São Paulo", Rect{-25.3, -53.1, -19.8, -44.2}},
	{"Minas Gerais", Rect{-22.9, -51.0, -14.2, -39.9}},
	{"Rio de Janeiro", Rect{-23.4, -44.9, -20.8, -41.0}},
	{"Bahia", Rect{-18.3, -46.6, -8.5, -37.3}},
	{"Amazonas", Rect{-9.8, -73.8, 2.2, -56.1}},
	{"Mato Grosso", Rect{-18.0, -61.6, -7.3, -50.2}},
	{"Paraná", Rect{-26.7, -54.6, -22.5, -48.0}},
	{"Goiás", Rect{-19.5, -53.2, -12.4, -45.9}},
	{"Pará", Rect{-9.8, -58.9, 2.6, -46.1}},
	{"Santa Catarina", Rect{-29.4, -53.8, -25.9, -48.3}},
}

// citySyllables builds deterministic synthetic municipality names.
var citySyllables = [...]string{"Campi", "Ribei", "Soro", "Piraci", "Jundi", "Ara", "Barra", "Itu", "Mogi", "Guara", "Taqua", "Canta", "Boca", "Santa", "Ouro", "Serra", "Lagoa", "Monte", "Cacho", "Porto"}
var citySuffixes = [...]string{"nas", "rão", "caba", "aí", "raquara", " do Sul", " Verde", "tinga", " Preto", " Grande", "eira", " Velho", "polis", "ndia", " da Serra", " das Cruzes", "í", "ara", "az", "al"}

// SyntheticGazetteer builds a deterministic gazetteer with citiesPerState
// municipalities placed inside each state's bounding box. A handful of city
// names are deliberately duplicated across states to exercise the
// ambiguity path.
func SyntheticGazetteer(citiesPerState int, seed int64) *Gazetteer {
	rng := rand.New(rand.NewSource(seed))
	g := NewGazetteer()
	used := map[string]int{}
	for _, st := range BrazilStates {
		for i := 0; i < citiesPerState; i++ {
			name := citySyllables[rng.Intn(len(citySyllables))] + citySuffixes[rng.Intn(len(citySuffixes))]
			// Allow up to two states to share a name (ambiguity fodder);
			// otherwise uniquify.
			if used[name] >= 2 {
				name = fmt.Sprintf("%s %d", name, i)
			}
			used[name]++
			box := st.Box
			g.Add(Place{
				Country: "Brasil",
				State:   st.Name,
				City:    name,
				Location: Point{
					Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
					Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
				},
				UncertaintyKm: 1 + rng.Float64()*9,
			})
		}
	}
	// The paper's home institution: make Campinas/SP always resolvable.
	g.Add(Place{Country: "Brasil", State: "São Paulo", City: "Campinas",
		Location: Point{Lat: -22.9056, Lon: -47.0608}, UncertaintyKm: 2})
	return g
}

// PlacesIn returns all places in the given state, sorted by city name and
// then by every other field: a total order, so a state that has two places
// of one name lists them the same way every time, whatever order the lookup
// map is walked in.
func (g *Gazetteer) PlacesIn(state string) []Place {
	var out []Place
	for _, hits := range g.places {
		for _, h := range hits {
			if normalizePlace(h.State) == normalizePlace(state) {
				out = append(out, *h)
			}
		}
	}
	slices.SortFunc(out, func(a, b Place) int {
		return cmp.Or(
			strings.Compare(a.City, b.City),
			cmp.Compare(a.Location.Lat, b.Location.Lat),
			cmp.Compare(a.Location.Lon, b.Location.Lon),
			cmp.Compare(a.UncertaintyKm, b.UncertaintyKm),
			strings.Compare(a.Country, b.Country),
			strings.Compare(a.State, b.State),
		)
	})
	return out
}
