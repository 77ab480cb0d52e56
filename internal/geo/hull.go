package geo

import (
	"math"
	"sort"
)

// Species range geometry: convex hulls over occurrence points, used by the
// stage-2 analysis to describe a species' known distribution and to test
// whether a new record falls inside it.

// ConvexHull returns the convex hull of pts in counter-clockwise order
// (Andrew's monotone chain, treating lat/lon as planar — adequate at the
// regional scales of collection data). Degenerate inputs (0–2 points, or all
// collinear) return the reduced point set.
func ConvexHull(pts []Point) []Point {
	if len(pts) < 3 {
		out := append([]Point(nil), pts...)
		sortPoints(out)
		return dedupPoints(out)
	}
	sorted := append([]Point(nil), pts...)
	sortPoints(sorted)
	sorted = dedupPoints(sorted)
	if len(sorted) < 3 {
		return sorted
	}
	var lower, upper []Point
	for _, p := range sorted {
		for len(lower) >= 2 && cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		p := sorted[i]
		for len(upper) >= 2 && cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	if len(hull) < 3 {
		return sorted[:min(len(sorted), 2)]
	}
	return hull
}

func sortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Lon != pts[j].Lon {
			return pts[i].Lon < pts[j].Lon
		}
		return pts[i].Lat < pts[j].Lat
	})
}

func dedupPoints(pts []Point) []Point {
	out := pts[:0]
	for i, p := range pts {
		if i == 0 || p != pts[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// cross computes the z-component of (b-a) × (c-a) in lon/lat coordinates.
func cross(a, b, c Point) float64 {
	return (b.Lon-a.Lon)*(c.Lat-a.Lat) - (b.Lat-a.Lat)*(c.Lon-a.Lon)
}

// HullAreaKm2 approximates the hull area in km² via the planar shoelace
// formula scaled at the hull centroid's latitude.
func HullAreaKm2(hull []Point) float64 {
	if len(hull) < 3 {
		return 0
	}
	var areaDeg2 float64
	for i := range hull {
		a, b := hull[i], hull[(i+1)%len(hull)]
		areaDeg2 += a.Lon*b.Lat - b.Lon*a.Lat
	}
	areaDeg2 = math.Abs(areaDeg2) / 2
	c := Centroid(hull)
	kmPerDegLat := 111.0
	kmPerDegLon := 111.0 * math.Cos(c.Lat*math.Pi/180)
	return areaDeg2 * kmPerDegLat * kmPerDegLon
}

// SpeciesRange summarizes one species' known distribution.
type SpeciesRange struct {
	Species string
	Hull    []Point
	AreaKm2 float64
	Count   int
}

// RangesBySpecies builds a range summary for every species with at least
// minRecords valid observations, sorted by species name.
func RangesBySpecies(obs []Observation, minRecords int) []SpeciesRange {
	if minRecords <= 0 {
		minRecords = 3
	}
	grouped := map[string][]Point{}
	for _, o := range obs {
		if o.Species == "" || !o.Location.Valid() {
			continue
		}
		grouped[o.Species] = append(grouped[o.Species], o.Location)
	}
	var out []SpeciesRange
	for sp, pts := range grouped {
		if len(pts) < minRecords {
			continue
		}
		hull := ConvexHull(pts)
		out = append(out, SpeciesRange{
			Species: sp,
			Hull:    hull,
			AreaKm2: HullAreaKm2(hull),
			Count:   len(pts),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Species < out[j].Species })
	return out
}
