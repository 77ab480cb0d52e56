package taxonomy

import (
	"testing"
	"testing/quick"
)

func TestParseName(t *testing.T) {
	for _, tc := range []struct {
		raw     string
		want    string
		wantErr bool
	}{
		{"Elachistocleis ovalis", "Elachistocleis ovalis", false},
		{"elachistocleis OVALIS", "Elachistocleis ovalis", false},
		{"  Scinax   fuscomarginatus  ", "Scinax fuscomarginatus", false},
		{"Elachistocleis ovalis (Schneider, 1799)", "Elachistocleis ovalis", false},
		{"Elachistocleis ovalis Parker, 1927", "Elachistocleis ovalis", false},
		{"Elachistocleis ovalis subsp. minor", "Elachistocleis ovalis", false},
		{"Elachistocleis", "", true},
		{"", "", true},
		{"   ", "", true},
		{"123 456", "", true},
		{"Genus 123", "", true},
	} {
		n, err := ParseName(tc.raw)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseName(%q) succeeded with %q, want error", tc.raw, n.Canonical())
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseName(%q): %v", tc.raw, err)
			continue
		}
		if got := n.Canonical(); got != tc.want {
			t.Errorf("ParseName(%q) = %q, want %q", tc.raw, got, tc.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(a, b string) bool {
		n := Normalize(a + " " + b)
		if n == "" {
			return true
		}
		return Normalize(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "ab", 1},
		{"abc", "acb", 1}, // transposition
		{"ovalis", "ovalsi", 1},
		{"kitten", "sitting", 3},
		{"", "abc", 3},
	} {
		if got := distance(tc.a, tc.b); got != tc.want {
			t.Errorf("distance(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		if len(a) > 40 || len(b) > 40 {
			return true
		}
		return distance(a, b) == distance(b, a)
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("symmetry: %v", err)
	}
	identity := func(a string) bool {
		if len(a) > 40 {
			return true
		}
		return distance(a, a) == 0
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Fatalf("identity: %v", err)
	}
	triangle := func(a, b, c string) bool {
		if len(a)+len(b)+len(c) > 60 {
			return true
		}
		return distance(a, c) <= distance(a, b)+distance(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("triangle inequality: %v", err)
	}
}

func TestBoundedDistanceAgreesWithFull(t *testing.T) {
	pairs := [][2]string{
		{"Elachistocleis ovalis", "Elachistocleis ovale"},
		{"Hyla faber", "Hypsiboas faber"},
		{"abcdef", "ghijkl"},
	}
	for _, p := range pairs {
		full := distance(p[0], p[1])
		for bound := 0; bound <= full+2; bound++ {
			d, ok := boundedDistance(p[0], p[1], bound)
			if bound >= full {
				if !ok || d != full {
					t.Errorf("boundedDistance(%q,%q,%d) = %d,%v; want %d,true", p[0], p[1], bound, d, ok, full)
				}
			} else if ok {
				t.Errorf("boundedDistance(%q,%q,%d) reported within-bound for distance %d", p[0], p[1], bound, full)
			}
		}
	}
}

func TestTrigramClosest(t *testing.T) {
	ti := newTrigramIndex()
	for _, n := range []string{"Scinax fuscomarginatus", "Scinax fuscovarius", "Hyla faber", "Elachistocleis ovalis"} {
		ti.Add(n)
	}
	name, dist, ok := ti.Closest("Scinax fuscomarginatis", 2)
	if !ok || name != "Scinax fuscomarginatus" || dist != 1 {
		t.Fatalf("Closest = %q,%d,%v", name, dist, ok)
	}
	if _, _, ok := ti.Closest("Totally different thing", 2); ok {
		t.Fatal("Closest matched a far name")
	}
	// Exact strings match at distance 0.
	name, dist, ok = ti.Closest("Hyla faber", 2)
	if !ok || name != "Hyla faber" || dist != 0 {
		t.Fatalf("Closest exact = %q,%d,%v", name, dist, ok)
	}
}

// distance is the unrestricted Damerau-Levenshtein distance (with adjacent
// transposition): boundedDistance with a bound no pair of a and b exceeds.
func distance(a, b string) int {
	d, _ := boundedDistance(a, b, len(a)+len(b))
	return d
}
