package provenance

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// BatchWriterOptions tunes the write-behind persistence sink.
type BatchWriterOptions struct {
	// MaxBatch is the number of deltas that triggers a group commit
	// (default 128).
	MaxBatch int
	// FlushInterval bounds how long a delta can sit in the batch buffer
	// before a time-triggered flush (default 25ms).
	FlushInterval time.Duration
	// Queue is the capacity of the bounded delta queue (default 1024).
	// When the queue is full, Emit blocks — backpressure propagates to the
	// workflow engine's event delivery instead of growing memory unboundedly.
	Queue int
	// Trace, when set, is the context whose tracer (and current span) the
	// writer's flush and fsync spans attach to. The writer runs its own
	// goroutine, so the run's context must be handed over explicitly for the
	// spans to join the run's tree instead of being orphaned.
	Trace context.Context
}

func (o *BatchWriterOptions) defaults() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 128
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 25 * time.Millisecond
	}
	if o.Queue <= 0 {
		o.Queue = 1024
	}
}

// WriterMetrics snapshots one BatchWriter's counters.
type WriterMetrics struct {
	Enqueued        int64 // deltas accepted by Emit
	Flushed         int64 // deltas turned into durable storage ops
	Batches         int64 // group commits issued
	MaxBatch        int64 // largest single group commit, in deltas
	SizeFlushes     int64 // flushes triggered by MaxBatch
	IntervalFlushes int64 // flushes triggered by FlushInterval
	FinalFlushes    int64 // flushes triggered by run finalize / close
	PeakQueue       int64 // deepest the bounded queue got
	BlockedEmits    int64 // Emit calls that hit backpressure
	FlushTotal      time.Duration
	FlushMax        time.Duration
	// Flush is the flush-latency distribution (p50/p95/p99 via Counters).
	Flush telemetry.HistogramSnapshot
}

// AvgBatch is the mean group-commit size in deltas.
func (m WriterMetrics) AvgBatch() float64 {
	if m.Batches == 0 {
		return 0
	}
	return float64(m.Flushed) / float64(m.Batches)
}

// Counters renders the metrics as named readings for
// obs.FromRuntimeMetrics, so writer telemetry (queue depth, batch size,
// flush latency) is stored and queried like any other observation.
func (m WriterMetrics) Counters() map[string]float64 {
	c := map[string]float64{
		"provenance.writer.enqueued":         float64(m.Enqueued),
		"provenance.writer.flushed":          float64(m.Flushed),
		"provenance.writer.batches":          float64(m.Batches),
		"provenance.writer.max_batch":        float64(m.MaxBatch),
		"provenance.writer.avg_batch":        m.AvgBatch(),
		"provenance.writer.size_flushes":     float64(m.SizeFlushes),
		"provenance.writer.interval_flushes": float64(m.IntervalFlushes),
		"provenance.writer.final_flushes":    float64(m.FinalFlushes),
		"provenance.writer.peak_queue":       float64(m.PeakQueue),
		"provenance.writer.blocked_emits":    float64(m.BlockedEmits),
		"provenance.writer.flush_total_us":   float64(m.FlushTotal.Microseconds()),
		"provenance.writer.flush_max_us":     float64(m.FlushMax.Microseconds()),
	}
	return telemetry.MergeCounters(c, m.Flush.Counters("provenance.writer.flush"))
}

// BatchWriter is a Sink that streams a run's history into the repository
// while the run executes — write-behind, group-committed batches (size- or
// interval-triggered), a bounded queue with backpressure — and ends the run
// in one fsync'd commit: the last history rows, every node and edge row of
// the final graph, and the run-status update. If the process dies mid-run,
// recovery replays the WAL to a prefix of the history, the run row still
// reads Status == RunRunning — the "unfinished" marker — and no graph row
// exists. Failed runs end the same way and keep their partial provenance.
//
// A BatchWriter persists exactly one run. Emit is safe for the Collector's
// serialized delivery; Close must be called after the run's last event (and
// never concurrently with Emit).
type BatchWriter struct {
	repo *Repository
	opts BatchWriterOptions

	ch   chan Delta
	done chan struct{}

	mu     sync.Mutex // guards closed, err, m
	closed bool
	err    error
	m      WriterMetrics

	flushHist telemetry.Histogram
	// trace is the run's context: flush/fsync spans started from it join the
	// run's span tree even though they are recorded on the writer goroutine.
	trace context.Context

	// Writer-goroutine state (single goroutine, no locking needed).
	runID       string
	runInserted bool
	historySeq  int // highest history event seq already persisted (-1 none)
	// resume marks a writer re-opened on an interrupted run (NewResumeWriter):
	// the run row already exists, so run-started becomes an update.
	resume bool
	// stale deletes the graph rows an older version of this writer streamed
	// for the run before it was interrupted; the final commit applies them
	// ahead of the graph it writes.
	stale []storage.Op
	// rows is the flush scratch, reused across group commits.
	rows rowBuilder
}

// ErrWriterClosed is returned by Emit after Close.
var ErrWriterClosed = errors.New("provenance: batch writer closed")

// NewBatchWriter builds a write-behind sink persisting into the repository
// and starts its flusher goroutine. Attach it to a Collector before the run
// and Close it after the run returns.
func (r *Repository) NewBatchWriter(opts BatchWriterOptions) *BatchWriter {
	w := r.newWriter(opts)
	go w.loop()
	return w
}

func (r *Repository) newWriter(opts BatchWriterOptions) *BatchWriter {
	opts.defaults()
	w := &BatchWriter{
		repo:       r,
		opts:       opts,
		ch:         make(chan Delta, opts.Queue),
		done:       make(chan struct{}),
		historySeq: -1,
		trace:      opts.Trace,
	}
	if w.trace == nil {
		w.trace = context.Background()
	}
	return w
}

// Emit implements Sink. It enqueues the delta, blocking when the bounded
// queue is full (backpressure). After a storage error the writer drains and
// discards, and Emit keeps returning that first error.
func (w *BatchWriter) Emit(d Delta) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWriterClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.m.Enqueued++
	w.mu.Unlock()
	select {
	case w.ch <- d:
	default:
		w.mu.Lock()
		w.m.BlockedEmits++
		w.mu.Unlock()
		w.ch <- d
	}
	return nil
}

// Close waits for the queue to drain, issues the final flush (fsync'd), and
// returns the first error the writer hit (nil on a clean stream).
func (w *BatchWriter) Close() error {
	w.mu.Lock()
	already := w.closed
	w.closed = true
	w.mu.Unlock()
	if !already {
		close(w.ch)
	}
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Err returns the sticky first error (nil if none so far).
func (w *BatchWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Metrics snapshots the writer's counters.
func (w *BatchWriter) Metrics() WriterMetrics {
	w.mu.Lock()
	m := w.m
	w.mu.Unlock()
	m.Flush = w.flushHist.Snapshot()
	return m
}

func (w *BatchWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *BatchWriter) loop() {
	defer close(w.done)
	ticker := time.NewTicker(w.opts.FlushInterval)
	defer ticker.Stop()
	batch := make([]Delta, 0, w.opts.MaxBatch)
	for {
		select {
		case d, ok := <-w.ch:
			if !ok {
				w.flush(batch, "final")
				w.syncWAL()
				return
			}
			w.notePeak(int64(len(w.ch)) + 1)
			batch = append(batch, d)
			switch {
			case d.Kind == DeltaRunFinished:
				// The terminal delta: the graph and the run-status update
				// commit with everything still buffered, then fsync.
				batch = w.flush(batch, "final")
				w.syncWAL()
			case len(batch) >= w.opts.MaxBatch:
				batch = w.flush(batch, "size")
			}
		case <-ticker.C:
			if len(batch) > 0 {
				batch = w.flush(batch, "interval")
			}
		}
	}
}

func (w *BatchWriter) notePeak(depth int64) {
	w.mu.Lock()
	if depth > w.m.PeakQueue {
		w.m.PeakQueue = depth
	}
	w.mu.Unlock()
}

func (w *BatchWriter) syncWAL() {
	if w.Err() != nil || !w.runInserted {
		return
	}
	_, sp := telemetry.StartSpan(w.trace, "fsync", "provenance-writer")
	err := w.repo.db.Sync()
	sp.Finish()
	if err != nil {
		w.fail(err)
	}
}

// flush turns the buffered deltas into one atomic group commit, in stream
// order: the run row, history rows (an event at or below the stored
// high-water mark is skipped, never duplicated) and, for the terminal delta,
// the stale graph rows' deletes, the final graph's rows and the run-status
// update. Returns the reusable empty batch slice.
func (w *BatchWriter) flush(batch []Delta, trigger string) []Delta {
	if len(batch) == 0 {
		return batch
	}
	b := &w.rows
	defer func() {
		clear(batch)
		b.reset()
	}()
	if w.Err() != nil {
		return batch[:0] // sticky failure: drain and discard
	}
	for _, d := range batch {
		switch d.Kind {
		case DeltaRunStarted:
			err := checkRunID(d.Info.RunID)
			switch {
			case err != nil:
				w.fail(err)
				return batch[:0]
			case !w.resume:
				w.runID, w.runInserted = d.Info.RunID, true
				b.run(storage.InsertOp, d.Info)
			case d.Info.RunID != w.runID:
				w.fail(fmt.Errorf("provenance: resume writer for %q got run %q", w.runID, d.Info.RunID))
				return batch[:0]
			default:
				// The row already exists from before the crash; the resumed
				// execution refreshes it (same identity, still running).
				b.run(storage.UpdateOp, d.Info)
			}
		case DeltaHistory, DeltaRunFinished:
		default:
			w.fail(fmt.Errorf("provenance: unknown delta kind %d", d.Kind))
			return batch[:0]
		}
		if ev := d.History; ev != nil && ev.Seq > w.historySeq {
			if err := b.history(w.runID, ev); err != nil {
				w.fail(err)
				return batch[:0]
			}
			w.historySeq = ev.Seq
		}
		if d.Kind == DeltaRunFinished {
			b.ops = append(b.ops, w.stale...)
			w.stale = nil
			b.graph(w.runID, d.Graph)
			b.run(storage.UpdateOp, d.Info)
		}
	}
	_, sp := telemetry.StartSpan(w.trace, "flush", "provenance-writer")
	start := time.Now()
	err := w.repo.db.Apply(b.ops...)
	lat := time.Since(start)
	if sp != nil {
		sp.SetAttr("deltas", strconv.Itoa(len(batch)))
		sp.SetAttr("ops", strconv.Itoa(len(b.ops)))
		sp.SetAttr("trigger", trigger)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	sp.Finish()
	w.flushHist.Observe(lat)

	w.mu.Lock()
	w.m.Flushed += int64(len(batch))
	w.m.Batches++
	if int64(len(batch)) > w.m.MaxBatch {
		w.m.MaxBatch = int64(len(batch))
	}
	switch trigger {
	case "size":
		w.m.SizeFlushes++
	case "interval":
		w.m.IntervalFlushes++
	default:
		w.m.FinalFlushes++
	}
	w.m.FlushTotal += lat
	if lat > w.m.FlushMax {
		w.m.FlushMax = lat
	}
	w.mu.Unlock()

	if err != nil {
		w.fail(err)
	}
	return batch[:0]
}
