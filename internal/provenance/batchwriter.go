package provenance

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/opm"
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
	// FenceName/FenceToken, when FenceName is non-empty, route every flush
	// through storage.ApplyFenced: the batch commits only while the token is
	// current. An orchestrator whose run lease was stolen gets
	// storage.ErrStaleFence as the writer's sticky error — its history
	// appends stop at the storage layer instead of interleaving with the new
	// owner's stream.
	FenceName  string
	FenceToken int64
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

// wnode is the writer's materialized view of one node: the immutable node
// fields plus the annotations accumulated so far, and whether the node's row
// already exists in storage.
type wnode struct {
	node      opm.Node
	ann       map[string]string
	persisted bool
	dirty     bool
}

// BatchWriter is a Sink that streams a run's deltas into the repository
// while the run executes: write-behind, group-committed batches (size- or
// interval-triggered), bounded queue with backpressure, and a final fsync'd
// flush plus run-status finalize when the run completes or fails. If the
// process dies mid-run, recovery replays the WAL to a consistent prefix of
// the stream and the run row still reads Status == RunRunning — the
// "unfinished" marker. Failed runs keep their partial provenance.
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
	finalized   bool
	nodes       map[string]*wnode
	dirtyOrder  []string
	edgeSeq     int
	historySeq  int // highest history event seq already persisted (-1 none)
	// resume marks a writer re-opened on an interrupted run (NewResumeWriter):
	// the run row already exists, so run-started becomes an update.
	resume bool

	// Flush scratch, reused across group commits so the steady-state write
	// path stops allocating: the op list, a value arena the rows are carved
	// from, the annotation-blob encoder and the history payload arena. All
	// safe to reuse because Apply never retains caller memory — the WAL
	// buffers its record, and a stored row is the commit's own copy of the
	// cells and of every bytes payload (storage.Row.Clone; only immutable
	// strings are shared).
	ops      []storage.Op
	vals     []storage.Value
	annEnc   annEncoder
	payloads []byte
}

// ErrWriterClosed is returned by Emit after Close.
var ErrWriterClosed = errors.New("provenance: batch writer closed")

// NewBatchWriter builds a write-behind sink persisting into the repository
// and starts its flusher goroutine. Attach it to a Collector before the run
// and Close it after the run returns.
func (r *Repository) NewBatchWriter(opts BatchWriterOptions) *BatchWriter {
	opts.defaults()
	w := &BatchWriter{
		repo:       r,
		opts:       opts,
		ch:         make(chan Delta, opts.Queue),
		done:       make(chan struct{}),
		nodes:      make(map[string]*wnode),
		historySeq: -1,
		trace:      opts.Trace,
	}
	if w.trace == nil {
		w.trace = context.Background()
	}
	go w.loop()
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

// QueueDepth reports the number of deltas currently queued.
func (w *BatchWriter) QueueDepth() int { return len(w.ch) }

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
				// The terminal delta: flush everything and make it durable
				// together with the run-status finalize.
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

// flush turns the buffered deltas into one atomic group commit: run insert
// first, then edge inserts in sequence order interleaved with merged node
// writes (one insert-or-update per touched node, however many annotation
// deltas arrived), and the run-status finalize last. Returns the reusable
// empty batch slice.
func (w *BatchWriter) flush(batch []Delta, trigger string) []Delta {
	if len(batch) == 0 {
		return batch
	}
	ops := w.ops[:0]
	w.vals = w.vals[:0]
	w.payloads = w.payloads[:0]
	w.annEnc.Reset()
	defer func() {
		for i := range batch {
			batch[i] = Delta{}
		}
		for i := range ops {
			ops[i] = storage.Op{} // drop row references; the arena is reused next flush
		}
		w.ops = ops[:0]
	}()
	if w.Err() != nil {
		return batch[:0] // sticky failure: drain and discard
	}
	// arenaRow seals the values appended to the arena since start as one row.
	arenaRow := func(start int) storage.Row {
		return storage.Row(w.vals[start:len(w.vals):len(w.vals)])
	}
	var finishRow storage.Row
	markDirty := func(id string, ns *wnode) {
		if !ns.dirty {
			ns.dirty = true
			w.dirtyOrder = append(w.dirtyOrder, id)
		}
	}
	for _, d := range batch {
		switch d.Kind {
		case DeltaRunStarted:
			if d.Info.RunID == "" {
				w.fail(fmt.Errorf("provenance: run has no ID"))
				return batch[:0]
			}
			if w.resume {
				if d.Info.RunID != w.runID {
					w.fail(fmt.Errorf("provenance: resume writer for %q got run %q", w.runID, d.Info.RunID))
					return batch[:0]
				}
				// The row already exists from before the crash; the resumed
				// execution refreshes it (same identity, still running).
				start := len(w.vals)
				w.vals = appendRunRow(w.vals, d.Info)
				ops = append(ops, storage.UpdateOp(runsTable, arenaRow(start)))
				break
			}
			w.runID = d.Info.RunID
			w.runInserted = true
			start := len(w.vals)
			w.vals = appendRunRow(w.vals, d.Info)
			ops = append(ops, storage.InsertOp(runsTable, arenaRow(start)))
		case DeltaAddNode:
			if _, exists := w.nodes[d.Node.ID]; exists {
				break // already persisted by the pre-crash prefix
			}
			ns := &wnode{node: d.Node, ann: map[string]string{}}
			w.nodes[d.Node.ID] = ns
			markDirty(d.Node.ID, ns)
		case DeltaAnnotate:
			ns, ok := w.nodes[d.NodeID]
			if !ok {
				w.fail(fmt.Errorf("provenance: annotate on unknown node %q", d.NodeID))
				return batch[:0]
			}
			ns.ann[d.Key] = d.Value
			markDirty(d.NodeID, ns)
		case DeltaAddEdge:
			start := len(w.vals)
			w.vals = appendEdgeRow(w.vals, w.runID, w.edgeSeq, d.Edge)
			ops = append(ops, storage.InsertOp(edgesTable, arenaRow(start)))
			w.edgeSeq++
		case DeltaRunFinished:
			w.finalized = true
			start := len(w.vals)
			w.vals = appendRunRow(w.vals, d.Info)
			finishRow = arenaRow(start)
		case DeltaHistory:
			if d.History == nil {
				w.fail(fmt.Errorf("provenance: history delta without payload"))
				return batch[:0]
			}
			if d.History.Seq <= w.historySeq {
				break // persisted before the crash; never duplicated
			}
			start := len(w.vals)
			var err error
			if w.vals, w.payloads, err = appendHistoryRow(w.vals, w.payloads, w.runID, d.History); err != nil {
				w.fail(err)
				return batch[:0]
			}
			w.historySeq = d.History.Seq
			ops = append(ops, storage.InsertOp(historyTable, arenaRow(start)))
		default:
			w.fail(fmt.Errorf("provenance: unknown delta kind %d", d.Kind))
			return batch[:0]
		}
	}
	for _, id := range w.dirtyOrder {
		ns := w.nodes[id]
		ann := w.annEnc.Encode(ns.ann)
		start := len(w.vals)
		w.vals = appendNodeRow(w.vals, w.runID, ns.node, ann)
		row := arenaRow(start)
		if ns.persisted {
			ops = append(ops, storage.UpdateOp(nodesTable, row))
		} else {
			ops = append(ops, storage.InsertOp(nodesTable, row))
			ns.persisted = true
		}
		ns.dirty = false
	}
	w.dirtyOrder = w.dirtyOrder[:0]
	if finishRow != nil {
		ops = append(ops, storage.UpdateOp(runsTable, finishRow))
	}
	_, sp := telemetry.StartSpan(w.trace, "flush", "provenance-writer")
	start := time.Now()
	var err error
	if w.opts.FenceName != "" {
		err = w.repo.db.ApplyFenced(w.opts.FenceName, w.opts.FenceToken, ops...)
	} else {
		err = w.repo.db.Apply(ops...)
	}
	lat := time.Since(start)
	if sp != nil {
		sp.SetAttr("deltas", strconv.Itoa(len(batch)))
		sp.SetAttr("ops", strconv.Itoa(len(ops)))
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
