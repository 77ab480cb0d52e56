package telemetry

// TraceStore is the persisted-trace surface consumed by core and the web
// service. *SpanStore implements it directly; shard.TraceRouter implements
// it by routing each run's spans to the shard that owns the run.
type TraceStore interface {
	Append(runID string, spans []Span) error
	Spans(runID string) ([]Span, error)
	SpansPage(runID string, after, limit int) ([]Span, int, error)
	// Snapshot returns the store itself. It is kept only because the
	// benchmark module's tracing decorator calls it; nothing else does, and
	// every read is already one atomic call against the live store.
	Snapshot() TraceStore
}

// Snapshot implements TraceStore: the store itself (see the interface).
func (s *SpanStore) Snapshot() TraceStore { return s }

var _ TraceStore = (*SpanStore)(nil)
