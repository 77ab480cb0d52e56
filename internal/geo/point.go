// Package geo provides the geographic substrate of the case study: a
// synthetic gazetteer for the Neotropics (stage-1 geocoding of legacy
// records that predate GPS), a spatial grid index, and the stage-2 spatial
// analysis that flags possibly misidentified species from the geographic
// distribution of their records.
package geo

import (
	"fmt"
	"math"
)

// Point is a WGS-84 coordinate in decimal degrees.
type Point struct {
	Lat float64
	Lon float64
}

// Valid reports whether the point lies in the legal coordinate domain.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// String renders the point as "lat,lon" with 5 decimals (~1 m).
func (p Point) String() string { return fmt.Sprintf("%.5f,%.5f", p.Lat, p.Lon) }

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between two points in km.
func DistanceKm(a, b Point) float64 {
	la1, lo1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	la2, lo2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dla, dlo := la2-la1, lo2-lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) + math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Rect is a latitude/longitude bounding box.
type Rect struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// Centroid returns the arithmetic centroid of pts (zero value for empty).
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var lat, lon float64
	for _, p := range pts {
		lat += p.Lat
		lon += p.Lon
	}
	return Point{Lat: lat / float64(len(pts)), Lon: lon / float64(len(pts))}
}
