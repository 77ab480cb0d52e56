package fnjv

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Metadata-based retrieval (paper §II.C and Cugler et al. 2012): "queries on
// metadata, usually posing queries on fields such as species taxonomy, and
// location where the sound was recorded" — extended with the context
// variables stage-1 curation adds (coordinates, environmental conditions),
// which is exactly how curation "enhances the scope of queries that can be
// supported" (§IV).

// Predicate filters records. Predicates compose with And.
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

// BySpeciesName matches the raw species string (case-insensitive).
func BySpeciesName(name string) Predicate {
	want := strings.ToLower(strings.Join(strings.Fields(name), " "))
	return func(r *Record) bool {
		return strings.ToLower(strings.Join(strings.Fields(r.Species), " ")) == want
	}
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
