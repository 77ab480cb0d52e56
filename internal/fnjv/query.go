package fnjv

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/geo"
)

// Metadata-based retrieval (paper §II.C and Cugler et al. 2012): "queries on
// metadata, usually posing queries on fields such as species taxonomy, and
// location where the sound was recorded" — extended with the context
// variables stage-1 curation adds (coordinates, environmental conditions),
// which is exactly how curation "enhances the scope of queries that can be
// supported" (§IV).

// Predicate filters records. Predicates compose with And/Or/Not.
type Predicate func(*Record) bool

// And matches records satisfying every predicate.
func And(ps ...Predicate) Predicate {
	return func(r *Record) bool {
		for _, p := range ps {
			if !p(r) {
				return false
			}
		}
		return true
	}
}

// Or matches records satisfying at least one predicate.
func Or(ps ...Predicate) Predicate {
	return func(r *Record) bool {
		for _, p := range ps {
			if p(r) {
				return true
			}
		}
		return false
	}
}

// Not inverts a predicate.
func Not(p Predicate) Predicate {
	return func(r *Record) bool { return !p(r) }
}

// BySpeciesName matches the raw species string (case-insensitive).
func BySpeciesName(name string) Predicate {
	want := strings.ToLower(strings.Join(strings.Fields(name), " "))
	return func(r *Record) bool {
		return strings.ToLower(strings.Join(strings.Fields(r.Species), " ")) == want
	}
}

// ByGenus matches the genus field (case-insensitive).
func ByGenus(genus string) Predicate {
	want := strings.ToLower(genus)
	return func(r *Record) bool { return strings.ToLower(r.Genus) == want }
}

// ByTaxon matches any rank of the classification (class, order, family ...).
func ByTaxon(value string) Predicate {
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

// ByState matches the state field (case-insensitive).
func ByState(state string) Predicate {
	want := strings.ToLower(state)
	return func(r *Record) bool { return strings.ToLower(r.State) == want }
}

// ByDateRange matches records collected in [from, to] inclusive; zero bounds
// are open.
func ByDateRange(from, to time.Time) Predicate {
	return func(r *Record) bool {
		if r.CollectDate.IsZero() {
			return false
		}
		if !from.IsZero() && r.CollectDate.Before(from) {
			return false
		}
		if !to.IsZero() && r.CollectDate.After(to) {
			return false
		}
		return true
	}
}

// ByYearRange matches collect years in [fromYear, toYear].
func ByYearRange(fromYear, toYear int) Predicate {
	return func(r *Record) bool {
		if r.CollectDate.IsZero() {
			return false
		}
		y := r.CollectDate.Year()
		return y >= fromYear && y <= toYear
	}
}

// WithinKm matches georeferenced records within radiusKm of center — the
// query class that only becomes possible after stage-1 geocoding.
func WithinKm(center geo.Point, radiusKm float64) Predicate {
	return func(r *Record) bool {
		if !r.HasCoordinates() {
			return false
		}
		return geo.DistanceKm(center, geo.Point{Lat: *r.Latitude, Lon: *r.Longitude}) <= radiusKm
	}
}

// ByTemperatureRange matches records whose recorded air temperature lies in
// [lo, hi] — an environmental context variable.
func ByTemperatureRange(lo, hi float64) Predicate {
	return func(r *Record) bool {
		return r.AirTempC != nil && *r.AirTempC >= lo && *r.AirTempC <= hi
	}
}

// ByAtmosphere matches the atmospheric-conditions field.
func ByAtmosphere(cond string) Predicate {
	want := strings.ToLower(cond)
	return func(r *Record) bool { return strings.ToLower(r.Atmosphere) == want }
}

// ByHabitat matches records whose habitat contains the given term.
func ByHabitat(term string) Predicate {
	want := strings.ToLower(term)
	return func(r *Record) bool { return strings.Contains(strings.ToLower(r.Habitat), want) }
}

// NocturnalOnly matches records collected between 18:00 and 05:59 — a
// behaviour-context query over the collect-time variable.
func NocturnalOnly() Predicate {
	return func(r *Record) bool {
		if len(r.CollectTime) < 2 {
			return false
		}
		h := (int(r.CollectTime[0]-'0'))*10 + int(r.CollectTime[1]-'0')
		return h >= 18 || h < 6
	}
}

// QueryOptions shapes result sets.
type QueryOptions struct {
	// Limit caps the number of results (0 = unlimited).
	Limit int
	// OrderBy sorts results: "id" (default), "date", "species".
	OrderBy string
}

// Query runs a predicate scan over the store, optionally using the species
// secondary index when the predicate set includes an exact species match.
func (s *Store) Query(pred Predicate, opts QueryOptions) ([]*Record, error) {
	var out []*Record
	err := s.Scan(func(r *Record) bool {
		if pred(r) {
			out = append(out, r)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	order, err := RecordOrder(opts.OrderBy)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, order)
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	return out, nil
}

// RecordOrder returns the comparator behind Query's OrderBy — "id"
// (default), "date", or "species" — with the record ID as the final
// tiebreak, so the ordering is total and identical however the records were
// collected (single-store scan or a cross-shard merge).
func RecordOrder(orderBy string) (func(a, b *Record) int, error) {
	switch orderBy {
	case "", "id":
		return func(a, b *Record) int { return cmp.Compare(a.ID, b.ID) }, nil
	case "date":
		return func(a, b *Record) int {
			if c := a.CollectDate.Compare(b.CollectDate); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		}, nil
	case "species":
		return func(a, b *Record) int {
			if c := cmp.Compare(a.Species, b.Species); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		}, nil
	}
	return nil, fmt.Errorf("fnjv: unknown OrderBy %q", orderBy)
}

// QuerySpecies is the indexed fast path for an exact species name plus an
// optional residual predicate.
func (s *Store) QuerySpecies(name string, residual Predicate, opts QueryOptions) ([]*Record, error) {
	rows, err := s.BySpecies(name)
	if err != nil {
		return nil, err
	}
	out := rows[:0]
	for _, r := range rows {
		if residual == nil || residual(r) {
			out = append(out, r)
		}
	}
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	return out, nil
}

// FacetCounts aggregates a facet over matching records, e.g. how many
// recordings per class or per state match a context query.
func (s *Store) FacetCounts(pred Predicate, facet func(*Record) string) (map[string]int, error) {
	out := map[string]int{}
	err := s.Scan(func(r *Record) bool {
		if pred == nil || pred(r) {
			if k := facet(r); k != "" {
				out[k]++
			}
		}
		return true
	})
	return out, err
}
