package taxonomy

import "testing"

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
