// Package linkeddata implements the paper's Linked-Data direction
// (conclusions, ref. Mota & Medeiros "Shadows", DESWEB 2013): curated
// metadata and provenance are exported as RDF-style triples, documents are
// represented by flexible "shadows" (the entities they mention), and
// cross-referencing connects research artifacts across distinct communities
// that appear to work on unrelated issues — "breaking down disciplinary
// boundaries among repositories and enhancing reuse".
//
// The triple store is deliberately small: an in-memory store with SPO/POS/OSP
// indexes, pattern matching with wildcards, and N-Triples serialization.
package linkeddata

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Term is an RDF term: an IRI or a literal. The zero Term is invalid.
type Term struct {
	value   string
	literal bool
}

// IRI builds an IRI term.
func IRI(iri string) Term { return Term{value: iri} }

// Literal builds a literal term.
func Literal(v string) Term { return Term{value: v, literal: true} }

// Value returns the raw IRI or literal text.
func (t Term) Value() string { return t.value }

// Zero reports whether the term is unset.
func (t Term) Zero() bool { return t.value == "" && !t.literal }

// NTriples renders the term in N-Triples syntax.
func (t Term) NTriples() string {
	if t.literal {
		return `"` + escapeLiteral(t.value) + `"`
	}
	return "<" + t.value + ">"
}

func escapeLiteral(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`, "\t", `\t`)
	return r.Replace(s)
}

// Triple is one statement.
type Triple struct {
	Subject   string // IRI
	Predicate string // IRI
	Object    Term
}

// NTriples renders the triple as one N-Triples line (without newline).
func (t Triple) NTriples() string {
	return fmt.Sprintf("<%s> <%s> %s .", t.Subject, t.Predicate, t.Object.NTriples())
}

// Common vocabulary IRIs used by the exporters (Darwin Core, Dublin Core,
// RDF).
const (
	RDFType       = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	DCTitle       = "http://purl.org/dc/terms/title"
	DCSubject     = "http://purl.org/dc/terms/subject"
	DCCreator     = "http://purl.org/dc/terms/creator"
	DwcScientific = "http://rs.tdwg.org/dwc/terms/scientificName"
	DwcAccepted   = "http://rs.tdwg.org/dwc/terms/acceptedNameUsage"
	DwcLocality   = "http://rs.tdwg.org/dwc/terms/locality"
	DwcState      = "http://rs.tdwg.org/dwc/terms/stateProvince"
	DwcClass      = "http://rs.tdwg.org/dwc/terms/class"
	DwcEventDate  = "http://rs.tdwg.org/dwc/terms/eventDate"
	DwcLat        = "http://rs.tdwg.org/dwc/terms/decimalLatitude"
	DwcLon        = "http://rs.tdwg.org/dwc/terms/decimalLongitude"
	TypeRecording = "https://fnjv.example/ns#Recording"
	TypeDocument  = "https://fnjv.example/ns#Document"
)

// Store is an in-memory triple store with three access paths.
type Store struct {
	triples []Triple
	seen    map[string]bool
	bySubj  map[string][]int
	byPred  map[string][]int
	byObj   map[string][]int
}

// NewStore builds an empty store.
func NewStore() *Store {
	return &Store{
		seen:   make(map[string]bool),
		bySubj: make(map[string][]int),
		byPred: make(map[string][]int),
		byObj:  make(map[string][]int),
	}
}

// Add inserts one triple (duplicates are ignored). It rejects triples with
// empty subject/predicate or zero object.
func (s *Store) Add(t Triple) error {
	if t.Subject == "" || t.Predicate == "" || t.Object.Zero() {
		return fmt.Errorf("linkeddata: incomplete triple %+v", t)
	}
	key := t.NTriples()
	if s.seen[key] {
		return nil
	}
	s.seen[key] = true
	idx := len(s.triples)
	s.triples = append(s.triples, t)
	s.bySubj[t.Subject] = append(s.bySubj[t.Subject], idx)
	s.byPred[t.Predicate] = append(s.byPred[t.Predicate], idx)
	s.byObj[t.Object.NTriples()] = append(s.byObj[t.Object.NTriples()], idx)
	return nil
}

// Match returns triples matching the pattern; empty subject/predicate and a
// zero object act as wildcards. Results preserve insertion order.
func (s *Store) Match(subject, predicate string, object Term) []Triple {
	// Choose the most selective index available.
	var candidates []int
	switch {
	case subject != "":
		candidates = s.bySubj[subject]
	case !object.Zero():
		candidates = s.byObj[object.NTriples()]
	case predicate != "":
		candidates = s.byPred[predicate]
	default:
		candidates = make([]int, len(s.triples))
		for i := range s.triples {
			candidates[i] = i
		}
	}
	var out []Triple
	for _, i := range candidates {
		t := s.triples[i]
		if subject != "" && t.Subject != subject {
			continue
		}
		if predicate != "" && t.Predicate != predicate {
			continue
		}
		if !object.Zero() && t.Object != object {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Subjects returns the distinct subjects having predicate=object, sorted.
func (s *Store) Subjects(predicate string, object Term) []string {
	set := map[string]bool{}
	for _, t := range s.Match("", predicate, object) {
		set[t.Subject] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteNTriples serializes the store in insertion order.
func (s *Store) WriteNTriples(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range s.triples {
		if _, err := bw.WriteString(t.NTriples() + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNTriples parses a (subset of) N-Triples document produced by
// WriteNTriples into a new store.
func ReadNTriples(r io.Reader) (*Store, error) {
	s := NewStore()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseNTriple(line)
		if err != nil {
			return nil, fmt.Errorf("linkeddata: line %d: %w", lineNo, err)
		}
		if err := s.Add(t); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseNTriple(line string) (Triple, error) {
	if !strings.HasSuffix(line, ".") {
		return Triple{}, fmt.Errorf("missing terminating dot in %q", line)
	}
	body := strings.TrimSpace(strings.TrimSuffix(line, "."))
	subj, rest, err := parseIRI(body)
	if err != nil {
		return Triple{}, err
	}
	pred, rest, err := parseIRI(rest)
	if err != nil {
		return Triple{}, err
	}
	rest = strings.TrimSpace(rest)
	var obj Term
	switch {
	case strings.HasPrefix(rest, "<"):
		v, tail, err := parseIRI(rest)
		if err != nil {
			return Triple{}, err
		}
		if strings.TrimSpace(tail) != "" {
			return Triple{}, fmt.Errorf("trailing content %q", tail)
		}
		obj = IRI(v)
	case strings.HasPrefix(rest, `"`) && strings.HasSuffix(rest, `"`) && len(rest) >= 2:
		obj = Literal(unescapeLiteral(rest[1 : len(rest)-1]))
	default:
		return Triple{}, fmt.Errorf("bad object %q", rest)
	}
	return Triple{Subject: subj, Predicate: pred, Object: obj}, nil
}

func parseIRI(s string) (string, string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "<") {
		return "", "", fmt.Errorf("expected IRI in %q", s)
	}
	end := strings.Index(s, ">")
	if end < 0 {
		return "", "", fmt.Errorf("unterminated IRI in %q", s)
	}
	return s[1:end], s[end+1:], nil
}

func unescapeLiteral(s string) string {
	r := strings.NewReplacer(`\n`, "\n", `\r`, "\r", `\t`, "\t", `\"`, `"`, `\\`, `\`)
	return r.Replace(s)
}
