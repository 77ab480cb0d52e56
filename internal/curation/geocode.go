package curation

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
)

// Stage-1, step 2 (§IV.B): "add geographic coordinates to all metadata
// records (since most recordings had been made before the advent of GPS)".

// GeocodeReport summarizes a geocoding pass.
type GeocodeReport struct {
	RecordsChecked  int
	AlreadyHadCoord int
	Geocoded        int
	Ambiguous       int // "location name was too vague" -> needs a curator
	Unknown         int
}

// Geocoder fills missing coordinates from the gazetteer.
type Geocoder struct {
	Gazetteer *geo.Gazetteer
	Ledger    *Ledger // logs each fill by actor "geocoder"; nil skips logging
}

// Geocode adds coordinates to every record that lacks them and whose place
// resolves unambiguously. Ambiguous and unknown places are counted for the
// human-curator queue, mirroring the paper's expert-disambiguation loop.
func (g *Geocoder) Geocode(store fnjv.Records) (*GeocodeReport, error) {
	if g.Gazetteer == nil {
		return nil, fmt.Errorf("curation: geocoder needs a gazetteer")
	}
	report := &GeocodeReport{}
	var updated []*fnjv.Record
	err := store.Scan(func(r *fnjv.Record) bool {
		report.RecordsChecked++
		if r.HasCoordinates() {
			report.AlreadyHadCoord++
			return true
		}
		place, err := g.Gazetteer.Resolve(r.Country, r.State, r.City)
		switch {
		case err == nil:
			cp := *r
			lat, lon := place.Location.Lat, place.Location.Lon
			cp.Latitude, cp.Longitude = &lat, &lon
			updated = append(updated, &cp)
			report.Geocoded++
		case errors.Is(err, geo.ErrPlaceAmbiguous):
			report.Ambiguous++
		default:
			report.Unknown++
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, r := range updated {
		if err := store.Update(r); err != nil {
			return nil, err
		}
		if g.Ledger != nil {
			if err := g.Ledger.LogChange(HistoryEntry{
				RecordID: r.ID, Field: "latitude,longitude",
				NewValue: fmt.Sprintf("%.5f,%.5f", *r.Latitude, *r.Longitude),
				Reason:   "stage1-geocode", Actor: "geocoder", At: time.Now(),
			}); err != nil {
				return nil, err
			}
		}
	}
	return report, nil
}

// Stage-1, step 3 (§IV.B): "filled in missing fields whenever possible, in
// particular those concerning environmental conditions (e.g., humidity or
// temperature), obtained from authoritative sources, once location and date
// were defined".

// GapFillReport summarizes an environmental gap-fill pass.
type GapFillReport struct {
	RecordsChecked int
	Filled         int
	// SkippedNoLocation counts records still lacking coordinates or a date.
	SkippedNoLocation int
	SourceErrors      int
}

// GapFiller fills missing environmental fields from the climate source.
type GapFiller struct {
	Source envsource.Source
	Ledger *Ledger // logs each fill by actor "gapfill"; nil skips logging
}

// Fill completes missing temperature/humidity/atmosphere on records that
// have coordinates and a collect date.
func (g *GapFiller) Fill(store fnjv.Records) (*GapFillReport, error) {
	if g.Source == nil {
		return nil, fmt.Errorf("curation: gap filler needs an environmental source")
	}
	report := &GapFillReport{}
	var updated []*fnjv.Record
	err := store.Scan(func(r *fnjv.Record) bool {
		report.RecordsChecked++
		missing := r.AirTempC == nil || r.HumidityPct == nil || r.Atmosphere == ""
		if !missing {
			return true
		}
		if !r.HasCoordinates() || r.CollectDate.IsZero() {
			report.SkippedNoLocation++
			return true
		}
		cond, err := g.Source.Normals(*r.Latitude, *r.Longitude, r.CollectDate)
		if err != nil {
			report.SourceErrors++
			return true
		}
		cp := *r
		if cp.AirTempC == nil {
			t := cond.TemperatureC
			cp.AirTempC = &t
		}
		if cp.HumidityPct == nil {
			h := cond.HumidityPct
			cp.HumidityPct = &h
		}
		if cp.Atmosphere == "" {
			cp.Atmosphere = cond.Atmosphere
		}
		updated = append(updated, &cp)
		report.Filled++
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, r := range updated {
		if err := store.Update(r); err != nil {
			return nil, err
		}
		if g.Ledger != nil {
			if err := g.Ledger.LogChange(HistoryEntry{
				RecordID: r.ID, Field: "air_temp_c,humidity_pct,atmosphere",
				NewValue: fmt.Sprintf("%.1f,%.1f,%s", *r.AirTempC, *r.HumidityPct, r.Atmosphere),
				Reason:   "stage1-gapfill", Actor: "gapfill", At: time.Now(),
			}); err != nil {
				return nil, err
			}
		}
	}
	return report, nil
}
