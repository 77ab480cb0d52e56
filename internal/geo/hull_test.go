package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{
		{0, 0}, {0, 10}, {10, 0}, {10, 10},
		{5, 5}, {2, 7}, {9, 1}, // interior
	}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull = %v", hull)
	}
	for _, corner := range []Point{{0, 0}, {0, 10}, {10, 0}, {10, 10}} {
		found := false
		for _, h := range hull {
			if h == corner {
				found = true
			}
		}
		if !found {
			t.Fatalf("corner %v missing from hull %v", corner, hull)
		}
	}
	// Interior points contained, exterior not.
	if !hullContains(hull, Point{5, 5}) || !hullContains(hull, Point{0, 0}) {
		t.Fatal("containment of interior/boundary failed")
	}
	if hullContains(hull, Point{11, 5}) || hullContains(hull, Point{-1, -1}) {
		t.Fatal("exterior point contained")
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); len(h) != 0 {
		t.Fatalf("empty hull = %v", h)
	}
	if h := ConvexHull([]Point{{1, 1}}); len(h) != 1 {
		t.Fatalf("single hull = %v", h)
	}
	if h := ConvexHull([]Point{{1, 1}, {1, 1}, {1, 1}}); len(h) != 1 {
		t.Fatalf("duplicate hull = %v", h)
	}
	// Collinear points collapse to the 2 extremes.
	h := ConvexHull([]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(h) != 2 {
		t.Fatalf("collinear hull = %v", h)
	}
	if hullContains(h, Point{1, 1}) {
		t.Log("degenerate hull treats only vertices as contained (documented)")
	}
	if HullAreaKm2(h) != 0 {
		t.Fatal("degenerate hull has area")
	}
}

func TestConvexHullPropertyAllPointsInside(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Lat: -25 + rng.Float64()*10, Lon: -50 + rng.Float64()*10}
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			continue // all collinear (vanishingly unlikely)
		}
		for _, p := range pts {
			if !hullContains(hull, p) {
				t.Fatalf("trial %d: point %v outside hull %v", trial, p, hull)
			}
		}
		// Hull vertices are input points.
		for _, h := range hull {
			found := false
			for _, p := range pts {
				if p == h {
					found = true
				}
			}
			if !found {
				t.Fatalf("trial %d: hull vertex %v not an input point", trial, h)
			}
		}
	}
}

func TestHullAreaKm2(t *testing.T) {
	// 1°×1° square at the equator ≈ 111 km × 111 km ≈ 12321 km².
	hull := ConvexHull([]Point{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	area := HullAreaKm2(hull)
	if math.Abs(area-12321) > 250 {
		t.Fatalf("equatorial square area = %.0f km²", area)
	}
	// The same square at 60°S shrinks by cos(60°) ≈ 0.5 in longitude.
	hull60 := ConvexHull([]Point{{-60.5, 0}, {-60.5, 1}, {-59.5, 0}, {-59.5, 1}})
	area60 := HullAreaKm2(hull60)
	if area60 > area*0.65 || area60 < area*0.35 {
		t.Fatalf("60°S square area = %.0f km² vs equator %.0f km²", area60, area)
	}
}

func TestRangesBySpecies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	obs := makeCluster(rng, "Wide species", Point{-20, -50}, 30, 400)
	obs = append(obs, makeCluster(rng, "Narrow species", Point{-22, -47}, 10, 20)...)
	obs = append(obs, Observation{RecordID: "x", Species: "Rare species", Location: Point{-10, -60}})
	obs = append(obs, Observation{RecordID: "bad", Species: "Wide species", Location: Point{999, 0}})

	ranges := RangesBySpecies(obs, 3)
	if len(ranges) != 2 {
		t.Fatalf("ranges = %+v", ranges)
	}
	// Sorted by name: Narrow before Wide.
	if ranges[0].Species != "Narrow species" || ranges[1].Species != "Wide species" {
		t.Fatalf("order = %s, %s", ranges[0].Species, ranges[1].Species)
	}
	if ranges[1].AreaKm2 <= ranges[0].AreaKm2 {
		t.Fatalf("wide range (%.0f) not larger than narrow (%.0f)", ranges[1].AreaKm2, ranges[0].AreaKm2)
	}
	if ranges[1].Count != 30 {
		t.Fatalf("invalid observation counted: %d", ranges[1].Count)
	}
}

// hullContains reports whether p lies inside (or on the boundary of) the
// convex hull, which must be in counter-clockwise order as produced by
// ConvexHull. Hulls with fewer than 3 vertices contain only their own points.
func hullContains(hull []Point, p Point) bool {
	if len(hull) < 3 {
		for _, h := range hull {
			if h == p {
				return true
			}
		}
		return false
	}
	for i := range hull {
		a, b := hull[i], hull[(i+1)%len(hull)]
		if cross(a, b, p) < 0 {
			return false
		}
	}
	return true
}
