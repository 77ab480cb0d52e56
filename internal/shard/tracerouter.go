package shard

import (
	"repro/internal/telemetry"
)

// TraceRouter implements telemetry.TraceStore across the cluster: a run's
// span tree lives on the shard that owns the run ID, next to its provenance.
type TraceRouter struct{ router }

var _ telemetry.TraceStore = (*TraceRouter)(nil)

// Snapshot implements telemetry.TraceStore: the router itself (see the
// interface).
func (t *TraceRouter) Snapshot() telemetry.TraceStore { return t }

// Append implements telemetry.TraceStore.
func (t *TraceRouter) Append(runID string, spans []telemetry.Span) error {
	return t.route(runID, func(b backends) error { return b.spans.Append(runID, spans) })
}

// Spans implements telemetry.TraceStore.
func (t *TraceRouter) Spans(runID string) (spans []telemetry.Span, err error) {
	err = t.route(runID, func(b backends) error {
		spans, err = b.spans.Spans(runID)
		return err
	})
	return spans, err
}

// SpansPage implements telemetry.TraceStore.
func (t *TraceRouter) SpansPage(runID string, after, limit int) (spans []telemetry.Span, next int, err error) {
	err = t.route(runID, func(b backends) error {
		spans, next, err = b.spans.SpansPage(runID, after, limit)
		return err
	})
	return spans, next, err
}
