package fnjv

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"

	"repro/internal/storage"
)

// Metadata-based retrieval (paper §II.C and Cugler et al. 2012): "queries on
// metadata, usually posing queries on fields such as species taxonomy, and
// location where the sound was recorded" — extended with the context
// variables stage-1 curation adds (coordinates, environmental conditions),
// which is exactly how curation "enhances the scope of queries that can be
// supported" (§IV).

// Predicate filters records by the collection's search fields. A blank
// field matches every record; a record must match every field that is set.
// Case is ignored as strings.ToLower ignores it: both sides are lowered and
// compared byte for byte.
type Predicate struct {
	// Species matches the raw species string with runs of whitespace
	// collapsed to one space and leading/trailing whitespace dropped, as
	// strings.Fields splits it ("hyla  FABER" matches "Hyla faber").
	Species string
	// State matches the state field.
	State string
	// Taxon matches any rank of the classification: phylum, class, order,
	// family or genus.
	Taxon string
}

// Cell positions the record filter reads in a stored row.
var (
	stateCol  = Schema.Index("state")
	taxonCols = [...]int{Schema.Index("phylum"), Schema.Index("class"), Schema.Index("order"),
		Schema.Index("family"), Schema.Index("genus")}
)

// rowFilter is a Predicate prepared for one scan: each set field lowered
// (species also whitespace-collapsed) once, then tested on a row's raw
// cells, so a row that does not match is never decoded.
type rowFilter struct {
	species, state, taxon       string
	bySpecies, byState, byTaxon bool
}

func (p Predicate) filter() rowFilter {
	return rowFilter{
		species: collapseLower(p.Species), bySpecies: p.Species != "",
		state: strings.ToLower(p.State), byState: p.State != "",
		taxon: strings.ToLower(p.Taxon), byTaxon: p.Taxon != "",
	}
}

// match tests a row of the schema's arity.
func (f *rowFilter) match(row storage.Row) bool {
	if f.bySpecies && !collapsedLowerEqual(row[speciesCol].Str(), f.species) {
		return false
	}
	if f.byState && !lowerEqual(row[stateCol].Str(), f.state) {
		return false
	}
	if f.byTaxon {
		for _, c := range taxonCols {
			if lowerEqual(row[c].Str(), f.taxon) {
				return true
			}
		}
		return false
	}
	return true
}

// collapseLower lowers s with its whitespace runs collapsed to one space.
func collapseLower(s string) string {
	return strings.ToLower(strings.Join(strings.Fields(s), " "))
}

// collapsedLowerEqual reports collapseLower(cell) == want. An ASCII cell is
// compared in place, without allocating; any other goes through
// collapseLower itself.
func collapsedLowerEqual(cell, want string) bool {
	if !isASCII(cell) {
		return collapseLower(cell) == want
	}
	j := 0
	for i := 0; i < len(cell); {
		for i < len(cell) && isASCIISpace(cell[i]) {
			i++
		}
		if i == len(cell) {
			break
		}
		if j > 0 {
			if j == len(want) || want[j] != ' ' {
				return false
			}
			j++
		}
		for ; i < len(cell) && !isASCIISpace(cell[i]); i, j = i+1, j+1 {
			if j == len(want) || want[j] != lowerASCII(cell[i]) {
				return false
			}
		}
	}
	return j == len(want)
}

// lowerEqual reports strings.ToLower(cell) == want, in place for an ASCII
// cell.
func lowerEqual(cell, want string) bool {
	if !isASCII(cell) {
		return strings.ToLower(cell) == want
	}
	if len(cell) != len(want) {
		return false
	}
	for i := 0; i < len(cell); i++ {
		if lowerASCII(cell[i]) != want[i] {
			return false
		}
	}
	return true
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// isASCIISpace reports the ASCII bytes unicode.IsSpace, and so
// strings.Fields, treats as whitespace.
func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// QueryOptions shapes result sets.
type QueryOptions struct {
	// Limit caps the number of results (0 = unlimited).
	Limit int
	// OrderBy sorts results: "id" (default), "date", "species".
	OrderBy string
}

// Query returns the records pred matches, sorted by opts.OrderBy and cut to
// opts.Limit. It walks every stored row in ID order and tests pred on the
// row's raw cells; only the rows that match are decoded. It reads no
// secondary index. A row of the wrong arity fails the query.
func (s *Store) Query(pred Predicate, opts QueryOptions) ([]*Record, error) {
	order, err := RecordOrder(opts.OrderBy)
	if err != nil {
		return nil, err
	}
	f := pred.filter()
	var out []*Record
	s.db.Table(Schema.Table).Scan(func(row storage.Row) bool {
		if err = checkArity(row); err != nil {
			return false
		}
		if !f.match(row) {
			return true
		}
		var r *Record
		if r, err = FromRow(row); err != nil {
			return false
		}
		out = append(out, r)
		return true
	})
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
