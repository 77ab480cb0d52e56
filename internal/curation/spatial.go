package curation

import (
	"fmt"
	"time"

	"repro/internal/fnjv"
	"repro/internal/geo"
)

// Stage 2 (§IV.B): "using spatial analysis to check errors. Examples of
// errors found included misidentified species and discovery of possible new
// species' behavior." Records whose coordinates are improbably far from the
// rest of their species' distribution are flagged for expert review.

// SpatialReport summarizes a stage-2 pass.
type SpatialReport struct {
	RecordsWithCoords int
	SpeciesTested     int
	Flagged           []geo.Outlier
	// Ranges summarizes each tested species' distribution (convex hull,
	// area) — the raw material for "possible new behaviour" judgements:
	// an outlier just outside a small range is more interesting than one
	// inside a continental one.
	Ranges  []geo.SpeciesRange
	Elapsed time.Duration
}

// SpatialAuditor runs geographic outlier detection over a collection.
type SpatialAuditor struct {
	Params geo.OutlierParams
	Ledger *Ledger // logs each anomaly by actor "spatial-audit"; nil skips logging
}

// Audit flags geographically anomalous records. Flagged records are written
// to the curation history as observations (reason "stage2-spatial"), not
// modified — the anomaly may be a misidentification or genuinely new
// behaviour; only an expert can tell.
func (a *SpatialAuditor) Audit(store fnjv.Records) (*SpatialReport, error) {
	start := time.Now()
	var obs []geo.Observation
	species := map[string]int{}
	err := store.Scan(func(r *fnjv.Record) bool {
		if !r.HasCoordinates() || r.Species == "" {
			return true
		}
		obs = append(obs, geo.Observation{
			RecordID: r.ID,
			Species:  r.Species,
			Location: geo.Point{Lat: *r.Latitude, Lon: *r.Longitude},
		})
		species[r.Species]++
		return true
	})
	if err != nil {
		return nil, err
	}
	report := &SpatialReport{RecordsWithCoords: len(obs)}
	min := a.Params.MinRecords
	if min <= 0 {
		min = 5
	}
	for _, n := range species {
		if n >= min {
			report.SpeciesTested++
		}
	}
	report.Flagged = geo.DetectOutliers(obs, a.Params)
	report.Ranges = geo.RangesBySpecies(obs, min)
	if a.Ledger != nil {
		for _, o := range report.Flagged {
			if err := a.Ledger.LogChange(HistoryEntry{
				RecordID: o.RecordID, Field: "latitude,longitude",
				OldValue: o.Location.String(),
				Reason: fmt.Sprintf("stage2-spatial: %.0f km from %s medoid (threshold %.0f km)",
					o.DistanceKm, o.Species, o.ThresholdKm),
				Actor: "spatial-audit", At: time.Now(),
			}); err != nil {
				return nil, err
			}
		}
	}
	report.Elapsed = time.Since(start)
	return report, nil
}
