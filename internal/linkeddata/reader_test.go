package linkeddata

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The N-Triples reader is the exporter's test oracle: no program reads
// N-Triples back, so it lives beside the tests that check WriteNTriples
// writes what it parses.

// Value returns the raw IRI or literal text.
func (t Term) Value() string { return t.value }

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
