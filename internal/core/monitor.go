package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/quality"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// Monitor implements the paper's closing argument — "quality assessment must
// be a continuous task, as long as users deem the data to be useful" — as a
// reassessment its caller repeats: each ReassessOnce re-runs the detection
// workflow, persists a quality sample, and raises alerts when quality
// degrades (new knowledge invalidated names) or the authority misbehaves.
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
	// MinAvailability raises an alert when the authority's measured
	// availability falls below it (default 0.5; only checked when the run
	// options carry a measured availability).
	MinAvailability float64

	mu      sync.Mutex
	history []QualitySample
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
	AlertDegraded      AlertKind = "quality-degraded"
	AlertAuthorityDown AlertKind = "authority-unreliable"
	AlertRejected      AlertKind = "assessment-rejected"
)

// Alert is one raised condition.
type Alert struct {
	Kind   AlertKind
	Detail string
	Sample QualitySample
}

const samplesTable = "quality_samples"

var samplesSchema = storage.MustSchema(samplesTable,
	storage.Column{Name: "run_id", Kind: storage.KindString},
	storage.Column{Name: "at", Kind: storage.KindTime},
	storage.Column{Name: "accuracy", Kind: storage.KindFloat},
	storage.Column{Name: "utility", Kind: storage.KindFloat},
	storage.Column{Name: "outdated", Kind: storage.KindInt},
	storage.Column{Name: "distinct_names", Kind: storage.KindInt},
)

// NewMonitor builds a monitor over an open system, creating the persistent
// sample table if needed and loading prior samples so degradation detection
// survives restarts.
func NewMonitor(sys *System, resolver taxonomy.Resolver, opts RunOptions) (*Monitor, error) {
	if sys.DB.Table(samplesTable) == nil {
		if err := sys.DB.CreateTable(samplesSchema); err != nil {
			return nil, err
		}
	}
	opts.defaults() // normalize sentinel values (0 availability means unset)
	m := &Monitor{
		System:           sys,
		Resolver:         resolver,
		Opts:             opts,
		DegradationDelta: 0.01,
		MinAvailability:  0.5,
	}
	sys.DB.Table(samplesTable).Scan(func(row storage.Row) bool {
		m.history = append(m.history, QualitySample{
			RunID:    row.Get(samplesSchema, "run_id").Str(),
			At:       row.Get(samplesSchema, "at").Time(),
			Accuracy: row.Get(samplesSchema, "accuracy").Float(),
			Utility:  row.Get(samplesSchema, "utility").Float(),
			Outdated: int(row.Get(samplesSchema, "outdated").Int()),
			Distinct: int(row.Get(samplesSchema, "distinct_names").Int()),
		})
		return true
	})
	// Scan order is run-ID order, which matches chronological order for the
	// engine's monotonic run IDs.
	return m, nil
}

// History returns a copy of the sample series in chronological order.
func (m *Monitor) History() []QualitySample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]QualitySample(nil), m.history...)
}

// ReassessOnce runs one detection + assessment tick, persists the sample and
// returns any alerts.
func (m *Monitor) ReassessOnce(ctx context.Context) (QualitySample, []Alert, error) {
	outcome, err := m.System.RunDetection(ctx, m.Resolver, m.Opts)
	if err != nil {
		return QualitySample{}, nil, err
	}
	sample := QualitySample{
		At:       outcome.Assessment.At,
		RunID:    outcome.RunID,
		Accuracy: outcome.Assessment.Dimensions[quality.DimAccuracy],
		Utility:  outcome.Assessment.Utility,
		Outdated: outcome.Outdated,
		Distinct: outcome.DistinctNames,
	}
	if err := m.System.DB.Insert(samplesTable, storage.Row{
		storage.S(sample.RunID), storage.T(sample.At),
		storage.F(sample.Accuracy), storage.F(sample.Utility),
		storage.I(int64(sample.Outdated)), storage.I(int64(sample.Distinct)),
	}); err != nil {
		return QualitySample{}, nil, err
	}

	m.mu.Lock()
	var prev *QualitySample
	if len(m.history) > 0 {
		p := m.history[len(m.history)-1]
		prev = &p
	}
	m.history = append(m.history, sample)
	m.mu.Unlock()

	var alerts []Alert
	if prev != nil && prev.Accuracy-sample.Accuracy > m.DegradationDelta {
		alerts = append(alerts, Alert{
			Kind: AlertDegraded,
			Detail: fmt.Sprintf("accuracy fell %.3f -> %.3f (%d newly outdated names): knowledge evolved, curation needed",
				prev.Accuracy, sample.Accuracy, sample.Outdated-prev.Outdated),
			Sample: sample,
		})
	}
	if m.Opts.MeasuredAvailability >= 0 && m.Opts.MeasuredAvailability < m.MinAvailability {
		alerts = append(alerts, Alert{
			Kind:   AlertAuthorityDown,
			Detail: fmt.Sprintf("authority availability %.2f below %.2f", m.Opts.MeasuredAvailability, m.MinAvailability),
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

// Trend summarizes the series: first and last accuracy and the net change.
func (m *Monitor) Trend() (first, last, delta float64, samples int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.history) == 0 {
		return 0, 0, 0, 0
	}
	first = m.history[0].Accuracy
	last = m.history[len(m.history)-1].Accuracy
	return first, last, last - first, len(m.history)
}
