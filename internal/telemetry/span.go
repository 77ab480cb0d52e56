// Package telemetry is the execution-tracing observability layer: spans
// describe where a run spent its time (one span per processor invocation,
// per iteration element, per provenance flush, per authority resolution,
// per scrub pass), fixed-log-bucket histograms summarize latency
// distributions as p50/p95/p99, and a persisted per-run span table keeps a
// finished run's span tree queryable forever next to its OPM graph.
//
// Tracing is context-threaded and zero-configuration at call sites:
// subsystems call StartSpan(ctx, ...) and get a no-op span when no tracer
// was minted upstream, so untraced execution pays only a context lookup.
// The trace context is minted at the API boundary (web middleware) or at
// core.RunDetection for CLI and experiment runs.
package telemetry

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed operation in a trace. TraceID groups spans of one run
// (the provenance run ID, stamped when the run ID is known); ParentID links
// the span into the tree ("" marks the root).
type Span struct {
	TraceID  string            `json:"trace_id,omitempty"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Kind     string            `json:"kind"` // subsystem: engine, provenance-writer, taxonomy, archive-scrubber, core, api
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	Attrs    map[string]string `json:"attrs,omitempty"`

	tracer *Tracer
}

// Tracer mints spans and collects the finished ones, in end order, up to a
// cap (excess spans are dropped, never grown unboundedly). A
// tracer is cheap: mint one per run or per API request.
type Tracer struct {
	seq atomic.Int64

	mu    sync.Mutex
	spans []Span
	max   int
}

// DefaultMaxSpans bounds a tracer's retained spans when no cap is given.
const DefaultMaxSpans = 65536

// NewTracer builds a tracer retaining up to max finished spans (<= 0 uses
// DefaultMaxSpans).
func NewTracer(max int) *Tracer {
	if max <= 0 {
		max = DefaultMaxSpans
	}
	return &Tracer{max: max}
}

// StartSpan opens a child of the context's current span (root when none) and
// returns a context carrying the new span for further nesting. End the span
// to record it.
func (t *Tracer) StartSpan(ctx context.Context, name, kind string) (context.Context, *Span) {
	sp := &Span{
		SpanID: spanID(t.seq.Add(1)),
		Name:   name,
		Kind:   kind,
		Start:  time.Now(),
		tracer: t,
	}
	if parent := SpanFrom(ctx); parent != nil {
		sp.ParentID = parent.SpanID
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// spanID renders "s-%06d" without fmt: one string allocation instead of the
// Sprintf machinery, since StartSpan sits on every traced hot path.
func spanID(seq int64) string {
	var b [16]byte
	buf := append(b[:0], 's', '-')
	if seq >= 0 {
		for div := int64(100000); div >= 10 && seq < div; div /= 10 {
			buf = append(buf, '0')
		}
	}
	buf = strconv.AppendInt(buf, seq, 10)
	return string(buf)
}

// record stores one finished span.
func (t *Tracer) record(sp Span) {
	sp.tracer = nil
	t.mu.Lock()
	if len(t.spans) < t.max {
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Len reports how many finished spans the tracer holds. Use with Since to
// slice out the spans of one phase on a shared tracer.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Since returns a copy of the finished spans recorded at index n and later
// (end order).
func (t *Tracer) Since(n int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(t.spans) {
		return nil
	}
	return append([]Span(nil), t.spans[n:]...)
}

// SetAttr annotates the span. Safe on a nil span (no-op); call from the
// goroutine that owns the span, before End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[key] = value
}

// Finish stamps the end time and records the span with its tracer. Safe on
// a nil span; finishing twice records once.
func (s *Span) Finish() {
	if s == nil || s.tracer == nil {
		return
	}
	s.End = time.Now()
	t := s.tracer
	t.record(*s)
	s.tracer = nil
}

type (
	tracerKey struct{}
	spanKey   struct{}
)

// WithTracer returns a context carrying the tracer; downstream StartSpan
// calls record into it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom extracts the context's tracer (nil when none).
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanFrom extracts the context's current span (nil when none).
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan opens a span on the context's tracer. Without a tracer (or with
// a nil context) it returns the context unchanged and a nil span whose
// methods no-op — the zero-overhead path for untraced execution.
func StartSpan(ctx context.Context, name, kind string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	return t.StartSpan(ctx, name, kind)
}
