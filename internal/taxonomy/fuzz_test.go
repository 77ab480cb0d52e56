package taxonomy

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseName asserts the name parser never panics and that every
// successful parse yields a canonical, idempotent binomial.
func FuzzParseName(f *testing.F) {
	f.Add("Elachistocleis ovalis")
	f.Add("  hyla   FABER  ")
	f.Add("Elachistocleis ovalis (Schneider, 1799)")
	f.Add("")
	f.Add("X")
	f.Add("123 456")
	f.Add("Ge-nus epi-thet")
	f.Fuzz(func(t *testing.T, raw string) {
		n, err := ParseName(raw)
		if err != nil {
			return
		}
		canon := n.Canonical()
		n2, err := ParseName(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		if n2.Canonical() != canon {
			t.Fatalf("not idempotent: %q -> %q", canon, n2.Canonical())
		}
		if n.Genus == "" || n.Epithet == "" {
			t.Fatalf("parse of %q yielded empty parts: %+v", raw, n)
		}
	})
}

// FuzzDistance asserts the bounded distance matches the full distance
// whenever it reports in-bound.
func FuzzDistance(f *testing.F) {
	f.Add("ovalis", "ovale", 3)
	f.Add("", "abc", 1)
	f.Fuzz(func(t *testing.T, a, b string, bound int) {
		if len(a) > 64 || len(b) > 64 {
			return
		}
		if bound < 0 {
			bound = -bound
		}
		bound %= 20
		full := distance(a, b)
		d, ok := boundedDistance(a, b, bound)
		if ok {
			if d != full {
				t.Fatalf("bounded %d != full %d for %q,%q", d, full, a, b)
			}
			if d > bound {
				t.Fatalf("reported in-bound distance %d > bound %d", d, bound)
			}
		} else if full <= bound {
			t.Fatalf("gave up although full distance %d <= bound %d", full, bound)
		}
	})
}

// FuzzReadJSON fuzzes the checklist decoder colserver -load reads a file
// with: arbitrary bytes never panic ReadJSON, and a checklist that decodes
// dumps with WriteJSON and decodes back to an equal checklist, which dumps
// to the same bytes.
func FuzzReadJSON(f *testing.F) {
	gen, err := Generate(GeneratorSpec{Species: 6, OutdatedFraction: 0.5, ProvisionalFraction: 0.5, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var dump bytes.Buffer
	if err := gen.Checklist.WriteJSON(&dump); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.String())
	f.Add(`{"version":1,"taxa":[{"id":"t1","genus":"Hyla","epithet":"faber","status":"accepted"},` +
		`{"id":"t2","genus":"Hyla","epithet":"fabra","status":"synonym","accepted_id":"t1",` +
		`"history":[{"date":"1999-12-31T23:00:00+02:00","from_name":"Hyla fabra","to_name":"Hyla faber"}]}]}`)
	f.Add(`{"version":1,"taxa":[{"id":"t1","genus":"Hyla","epithet":"faber","status":"synonym","accepted_id":"t9"}]}`)
	f.Add(`{"version":2}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, doc string) {
		cl, err := ReadJSON(strings.NewReader(doc))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := cl.WriteJSON(&first); err != nil {
			t.Fatalf("a decoded checklist does not dump: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("the dump does not decode: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(inUTC(again.taxa), inUTC(cl.taxa)) {
			t.Fatalf("the dump decodes to other taxa:\n%s", first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(second.Bytes(), first.Bytes()) {
			t.Fatalf("dump of the decoded dump differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// inUTC copies taxa with every history date in UTC: a date decoded with a
// zero offset may carry time.Local, and its dump decodes to time.UTC.
func inUTC(taxa map[string]*Taxon) map[string]Taxon {
	out := make(map[string]Taxon, len(taxa))
	for id, t := range taxa {
		cp := *t
		cp.History = append([]NomenclaturalEvent(nil), t.History...)
		for i := range cp.History {
			cp.History[i].Date = cp.History[i].Date.UTC()
		}
		out[id] = cp
	}
	return out
}
