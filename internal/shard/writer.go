package shard

import (
	"errors"
	"sync"

	"repro/internal/provenance"
)

// ErrUnroutedDeltas is returned by Close when a writer saw deltas but none
// of them ever named a run — there is no shard to persist them on.
var ErrUnroutedDeltas = errors.New("shard: writer closed with unroutable deltas")

// routedWriter is a provenance.RunWriter that learns its destination from
// the stream itself: the capture layer emits DeltaRunStarted first, and its
// run ID picks the owning shard. Deltas seen before the run is named (there
// are none in practice, but the contract does not promise it) buffer in
// order and replay into the real writer once it exists. After routing, every
// call is a direct delegate to the owning shard's BatchWriter.
type routedWriter struct {
	router router
	opts   provenance.BatchWriterOptions

	mu    sync.Mutex
	buf   []provenance.Delta
	inner provenance.RunWriter
	err   error
}

var _ provenance.RunWriter = (*routedWriter)(nil)

// deltaRunID extracts the run identity a delta carries, if any.
func deltaRunID(d provenance.Delta) string {
	if d.Info.RunID != "" {
		return d.Info.RunID
	}
	if d.History != nil {
		return d.History.RunID
	}
	return ""
}

// Emit implements provenance.Sink.
func (w *routedWriter) Emit(d provenance.Delta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.inner == nil {
		runID := deltaRunID(d)
		if runID == "" {
			w.buf = append(w.buf, d)
			return nil
		}
		w.err = w.router.route(runID, func(b backends) error {
			w.inner = b.prov.NewBatchWriter(w.opts)
			return nil
		})
		if w.err != nil {
			return w.err
		}
		for _, buffered := range w.buf {
			if err := w.inner.Emit(buffered); err != nil {
				w.err = err
				return err
			}
		}
		w.buf = nil
	}
	return w.inner.Emit(d)
}

// Close implements provenance.RunWriter.
func (w *routedWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inner != nil {
		return w.inner.Close()
	}
	if w.err != nil {
		return w.err
	}
	if len(w.buf) > 0 {
		w.err = ErrUnroutedDeltas
		return w.err
	}
	return nil
}

// Err implements provenance.RunWriter.
func (w *routedWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inner != nil {
		return w.inner.Err()
	}
	return w.err
}

// Metrics implements provenance.RunWriter.
func (w *routedWriter) Metrics() provenance.WriterMetrics {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inner != nil {
		return w.inner.Metrics()
	}
	return provenance.WriterMetrics{}
}
