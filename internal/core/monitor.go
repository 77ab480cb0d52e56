package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/quality"
	"repro/internal/taxonomy"
)

// Monitor implements the paper's closing argument — "quality assessment must
// be a continuous task, as long as users deem the data to be useful" — as a
// reassessment its caller repeats: each ReassessOnce re-runs the detection
// workflow, whose stored run is the series' new sample, and raises alerts
// when quality degrades (new knowledge invalidated names) or the assessment
// is rejected.
//
// Each reassessment re-pays the full n-names authority sweep, so Opts.Parallel
// (the engine's unified concurrency budget) applies to every one: set it so
// a reassessment finishes well inside the caller's interval even when the
// authority is slow. Pair the resolver with taxonomy.CachingResolver —
// its singleflight coalescing keeps a parallel tick from flooding the
// authority with duplicate in-flight lookups.
type Monitor struct {
	System   *System
	Resolver taxonomy.Resolver
	Opts     RunOptions
	// DegradationDelta raises an alert when accuracy drops by more than this
	// amount between consecutive samples (default 0.01).
	DegradationDelta float64
}

// QualitySample is one point of the quality time series.
type QualitySample struct {
	At       time.Time
	RunID    string
	Accuracy float64
	Utility  float64
	Outdated int
	Distinct int
}

// AlertKind classifies monitor alerts.
type AlertKind string

// Alert kinds.
const (
	AlertDegraded AlertKind = "quality-degraded"
	AlertRejected AlertKind = "assessment-rejected"
)

// Alert is one raised condition.
type Alert struct {
	Kind   AlertKind
	Detail string
	Sample QualitySample
}

// NewMonitor builds a monitor over an open system. It keeps no series of
// its own: the series is the tenant's completed detection runs, read back
// from the provenance repository, so it survives restarts and includes runs
// the monitor did not start.
func NewMonitor(sys *System, resolver taxonomy.Resolver, opts RunOptions) *Monitor {
	return &Monitor{System: sys, Resolver: resolver, Opts: opts, DegradationDelta: 0.01}
}

// sampleOf is a run's point of the quality series.
func sampleOf(o *DetectionOutcome) QualitySample {
	return QualitySample{
		At:       o.Assessment.At,
		RunID:    o.RunID,
		Accuracy: o.Assessment.Dimensions[quality.DimAccuracy],
		Utility:  o.Assessment.Utility,
		Outdated: o.Outdated,
		Distinct: o.DistinctNames,
	}
}

// History returns the sample series in run order: one sample per completed
// detection run of the monitor's tenant, each read through StoredOutcome.
func (m *Monitor) History() ([]QualitySample, error) {
	runs, err := m.System.CompletedDetections(m.Opts.Tenant)
	if err != nil {
		return nil, err
	}
	out := make([]QualitySample, 0, len(runs))
	for _, info := range runs {
		o, err := m.System.StoredOutcome(info.RunID)
		if err != nil {
			return nil, err
		}
		out = append(out, sampleOf(o))
	}
	return out, nil
}

// ReassessOnce runs one detection + assessment tick and returns its sample
// and any alerts, comparing against the tenant's last stored run.
func (m *Monitor) ReassessOnce(ctx context.Context) (QualitySample, []Alert, error) {
	runs, err := m.System.CompletedDetections(m.Opts.Tenant)
	if err != nil {
		return QualitySample{}, nil, err
	}
	var prev *QualitySample
	if len(runs) > 0 {
		o, err := m.System.StoredOutcome(runs[len(runs)-1].RunID)
		if err != nil {
			return QualitySample{}, nil, err
		}
		p := sampleOf(o)
		prev = &p
	}
	outcome, err := m.System.RunDetection(ctx, m.Resolver, m.Opts)
	if err != nil {
		return QualitySample{}, nil, err
	}
	sample := sampleOf(outcome)

	var alerts []Alert
	if prev != nil && prev.Accuracy-sample.Accuracy > m.DegradationDelta {
		alerts = append(alerts, Alert{
			Kind: AlertDegraded,
			Detail: fmt.Sprintf("accuracy fell %.3f -> %.3f (%d newly outdated names): knowledge evolved, curation needed",
				prev.Accuracy, sample.Accuracy, sample.Outdated-prev.Outdated),
			Sample: sample,
		})
	}
	if !outcome.Assessment.Accepted {
		alerts = append(alerts, Alert{
			Kind:   AlertRejected,
			Detail: fmt.Sprintf("utility %.3f below the goal's accept threshold", outcome.Assessment.Utility),
			Sample: sample,
		})
	}
	return sample, alerts, nil
}

// Trend summarizes History: first and last accuracy and the net change.
func (m *Monitor) Trend() (first, last, delta float64, samples int, err error) {
	h, err := m.History()
	if err != nil || len(h) == 0 {
		return 0, 0, 0, 0, err
	}
	first, last = h[0].Accuracy, h[len(h)-1].Accuracy
	return first, last, last - first, len(h), nil
}
