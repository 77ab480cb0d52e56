// Package taxonomy implements the taxonomic-authority substrate of the case
// study: a synthetic Catalogue of Life. It provides a scientific-name model,
// a checklist with accepted names, synonyms and nomenclatural history, exact
// and fuzzy name resolution, and an HTTP service/client pair whose
// reliability can be degraded to the paper's observed 0.9 availability.
package taxonomy

import (
	"fmt"
	"strings"
	"unicode"
)

// Name is a parsed binomial scientific name.
type Name struct {
	Genus   string // capitalized, e.g. "Elachistocleis"
	Epithet string // lowercase, e.g. "ovalis"
}

// String renders the binomial.
func (n Name) String() string { return n.Genus + " " + n.Epithet }

// Canonical returns the normalized form used as a lookup key: single spaces,
// genus title-cased, epithet lower-cased.
func (n Name) Canonical() string { return n.String() }

// ParseName normalizes and parses a binomial name. It tolerates the noise
// found in legacy collection metadata: stray whitespace, wrong case, and
// trailing authorship strings like "(Schneider, 1799)".
func ParseName(raw string) (Name, error) {
	fields := strings.Fields(raw)
	// Drop authorship: everything from the first token that starts with '('
	// or contains a digit or comma onwards.
	var parts []string
	for _, f := range fields {
		if strings.HasPrefix(f, "(") || strings.ContainsAny(f, "0123456789,") {
			break
		}
		parts = append(parts, f)
	}
	if len(parts) < 2 {
		return Name{}, fmt.Errorf("taxonomy: %q is not a binomial name", raw)
	}
	genus := titleCase(parts[0])
	epithet := strings.ToLower(parts[1])
	if !alphabetic(genus) || !alphabetic(epithet) {
		return Name{}, fmt.Errorf("taxonomy: %q contains non-alphabetic name parts", raw)
	}
	return Name{Genus: genus, Epithet: epithet}, nil
}

// Normalize returns the canonical form of raw, or "" if unparseable.
func Normalize(raw string) string {
	n, err := ParseName(raw)
	if err != nil {
		return ""
	}
	return n.Canonical()
}

func titleCase(s string) string {
	s = strings.ToLower(s)
	r := []rune(s)
	if len(r) > 0 {
		r[0] = unicode.ToUpper(r[0])
	}
	return string(r)
}

func alphabetic(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !unicode.IsLetter(r) && r != '-' {
			return false
		}
	}
	return true
}

// Classification places a species in the Linnaean hierarchy, mirroring the
// FNJV metadata fields of Table II row 1.
type Classification struct {
	Phylum string
	Class  string
	Order  string
	Family string
}
