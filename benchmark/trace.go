package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/fnjv"
	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/taxonomy"
	"repro/internal/telemetry"
)

// The traced pass wraps the public seams of the system — the resolver handed
// to web.System and the interface fields of core.System — in decorators that
// record one span per call. Nothing inside internal/ is instrumented: what
// the decorators cannot see (the engine's own time, flushes on the writer
// goroutine) comes from the spans, history and counters the program already
// persists and exposes.

// op names one decorated call site.
type op uint8

const (
	opResolve op = iota
	opOpenWriter
	opEmit
	opClose
	opQualityOfProcess
	opSnapshot
	opRun
	opRunsPage
	opNodesPage
	opEdgesPage
	opGraph
	opDistinct
	opScan
	opQuery
	opAppend
	opSpansPage
	opCount
)

// opInfo places each call site in its layer and under the program span that
// encloses it (the "parent" of the written trace).
var opInfo = [opCount]struct{ layer, name, parent string }{
	opResolve:          {"taxonomy", "resolve", "workflow"},
	opOpenWriter:       {"provenance", "run-writer", "run-detection"},
	opEmit:             {"provenance", "emit", "workflow"},
	opClose:            {"provenance", "close", "run-detection"},
	opQualityOfProcess: {"provenance", "quality-of-process", "run-detection"},
	opSnapshot:         {"provenance", "snapshot", "request"},
	opRun:              {"provenance", "run", "request"},
	opRunsPage:         {"provenance", "runs-page", "request"},
	opNodesPage:        {"provenance", "nodes-page", "request"},
	opEdgesPage:        {"provenance", "edges-page", "request"},
	opGraph:            {"provenance", "graph", "request"},
	opDistinct:         {"fnjv", "distinct-species", "run-detection"},
	opScan:             {"fnjv", "scan", "run-detection"},
	opQuery:            {"fnjv", "query", "request"},
	opAppend:           {"telemetry", "append", "request"},
	opSpansPage:        {"telemetry", "spans-page", "request"},
}

// runTrace is the identity decorator calls of one detection run share. Calls
// that carry a context are matched to it by the run's tracer, calls that
// carry a run ID by the ID the run-started delta announced.
type runTrace struct {
	id string
}

type span struct {
	op         op
	start, end int64 // unix nanoseconds
	run        *runTrace
	n          int // names in a resolve call
}

// recorder keeps every span in memory until the benchmark ends.
type recorder struct {
	mu       sync.Mutex
	spans    []span
	byTracer map[*telemetry.Tracer]*runTrace
	byID     map[string]*runTrace
	writers  []provenance.WriterMetrics
}

func newRecorder() *recorder {
	return &recorder{
		byTracer: map[*telemetry.Tracer]*runTrace{},
		byID:     map[string]*runTrace{},
	}
}

// add records a call that started at t0 and ends now.
func (r *recorder) add(o op, t0 time.Time, run *runTrace, n int) {
	start := t0.UnixNano()
	s := span{op: o, start: start, end: start + int64(time.Since(t0)), run: run, n: n}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// openRun starts a run identity for the run whose writer was just opened on
// the trace context ctx.
func (r *recorder) openRun(ctx context.Context) *runTrace {
	run := &runTrace{}
	if tr := telemetry.TracerFrom(ctx); tr != nil {
		r.mu.Lock()
		r.byTracer[tr] = run
		r.mu.Unlock()
	}
	return run
}

func (r *recorder) nameRun(run *runTrace, id string) {
	r.mu.Lock()
	run.id = id
	r.byID[id] = run
	r.mu.Unlock()
}

// closeRun forgets the tracer of a finished run and keeps its writer metrics.
func (r *recorder) closeRun(ctx context.Context, m provenance.WriterMetrics) {
	r.mu.Lock()
	if tr := telemetry.TracerFrom(ctx); tr != nil {
		delete(r.byTracer, tr)
	}
	r.writers = append(r.writers, m)
	r.mu.Unlock()
}

func (r *recorder) runOfContext(ctx context.Context) *runTrace {
	tr := telemetry.TracerFrom(ctx)
	if tr == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byTracer[tr]
}

func (r *recorder) runOfID(id string) *runTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// marks is how many spans and writers have been recorded so far.
func (r *recorder) marks() (spans, writers int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans), len(r.writers)
}

// snapshot copies what has been recorded so far.
func (r *recorder) snapshot() ([]span, []provenance.WriterMetrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), append([]provenance.WriterMetrics(nil), r.writers...)
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path, workload string, spans []span) error {
	type spanJSON struct {
		Layer   string `json:"layer"`
		Name    string `json:"name"`
		Parent  string `json:"parent"`
		Run     string `json:"run,omitempty"`
		StartUS int64  `json:"start_us"`
		EndUS   int64  `json:"end_us"`
	}
	out := struct {
		Workload string     `json:"workload"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Spans: make([]spanJSON, len(spans))}
	for i, s := range spans {
		info := opInfo[s.op]
		j := spanJSON{Layer: info.layer, Name: info.name, Parent: info.parent, StartUS: s.start / 1000, EndUS: s.end / 1000}
		if s.run != nil {
			j.Run = s.run.id
		}
		out.Spans[i] = j
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTime is the part of [start, end) that no child interval covers: a
// layer's own time is its span minus what its children account for, and
// children that overlap each other are counted once.
func selfTime(start, end int64, children [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if lo < hi {
			clipped = append(clipped, [2]int64{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	covered, reach := int64(0), start
	for _, c := range clipped {
		lo := max(c[0], reach)
		if c[1] > lo {
			covered += c[1] - lo
			reach = c[1]
		}
	}
	return end - start - covered
}

// ---- resolver ----

// traceResolver wraps inner so that it offers exactly the capabilities inner
// does: core hands the resolver to taxonomy.Coalesce, which probes for the
// batch interfaces by type assertion, and a wrapper that always had them
// would switch the coalescer on for the plain checklist. (No resolver in the
// repo is detail-capable without being batch-capable.)
func traceResolver(inner taxonomy.Resolver, rec *recorder) taxonomy.Resolver {
	base := tracedResolver{inner: inner, rec: rec}
	br, ok := inner.(taxonomy.BatchResolver)
	if !ok {
		return &base
	}
	batch := tracedBatchResolver{tracedResolver: base, batch: br}
	dr, ok := inner.(taxonomy.DetailedBatchResolver)
	if !ok {
		return &batch
	}
	return &tracedDetailResolver{tracedBatchResolver: batch, detail: dr}
}

type tracedResolver struct {
	inner taxonomy.Resolver
	rec   *recorder
}

func (r *tracedResolver) Resolve(ctx context.Context, name string) (taxonomy.Resolution, error) {
	t0 := time.Now()
	res, err := r.inner.Resolve(ctx, name)
	r.rec.add(opResolve, t0, r.rec.runOfContext(ctx), 1)
	return res, err
}

type tracedBatchResolver struct {
	tracedResolver
	batch taxonomy.BatchResolver
}

func (r *tracedBatchResolver) BatchResolve(ctx context.Context, names []string) ([]taxonomy.Resolution, error) {
	t0 := time.Now()
	res, err := r.batch.BatchResolve(ctx, names)
	r.rec.add(opResolve, t0, r.rec.runOfContext(ctx), len(names))
	return res, err
}

type tracedDetailResolver struct {
	tracedBatchResolver
	detail taxonomy.DetailedBatchResolver
}

func (r *tracedDetailResolver) BatchResolveDetail(ctx context.Context, names []string) []taxonomy.BatchResult {
	t0 := time.Now()
	res := r.detail.BatchResolveDetail(ctx, names)
	r.rec.add(opResolve, t0, r.rec.runOfContext(ctx), len(names))
	return res
}

// ---- provenance ----

// tracedRepo times the repository calls of the run path and the read path;
// every other method is the embedded repository's own.
type tracedRepo struct {
	provenance.Repo
	rec *recorder
}

func (p tracedRepo) RunWriter(opts provenance.BatchWriterOptions) (provenance.RunWriter, error) {
	t0 := time.Now()
	w, err := p.Repo.RunWriter(opts)
	if err != nil {
		return nil, err
	}
	run := p.rec.openRun(opts.Trace)
	p.rec.add(opOpenWriter, t0, run, 0)
	return &tracedWriter{RunWriter: w, rec: p.rec, run: run, trace: opts.Trace}, nil
}

func (p tracedRepo) QualityOfProcess(runID, processor string) (map[string]string, error) {
	t0 := time.Now()
	ann, err := p.Repo.QualityOfProcess(runID, processor)
	p.rec.add(opQualityOfProcess, t0, p.rec.runOfID(runID), 0)
	return ann, err
}

func (p tracedRepo) Snapshot() provenance.Repo {
	t0 := time.Now()
	snap := p.Repo.Snapshot()
	p.rec.add(opSnapshot, t0, nil, 0)
	return tracedRepo{Repo: snap, rec: p.rec}
}

func (p tracedRepo) Run(runID string) (provenance.RunInfo, error) {
	t0 := time.Now()
	info, err := p.Repo.Run(runID)
	p.rec.add(opRun, t0, nil, 0)
	return info, err
}

func (p tracedRepo) RunsPage(after string, limit int) ([]provenance.RunInfo, string, error) {
	t0 := time.Now()
	runs, next, err := p.Repo.RunsPage(after, limit)
	p.rec.add(opRunsPage, t0, nil, 0)
	return runs, next, err
}

func (p tracedRepo) NodesPage(runID, after string, limit int) ([]*opm.Node, string, error) {
	t0 := time.Now()
	nodes, next, err := p.Repo.NodesPage(runID, after, limit)
	p.rec.add(opNodesPage, t0, nil, 0)
	return nodes, next, err
}

func (p tracedRepo) EdgesPage(runID string, after, limit int) ([]opm.Edge, int, error) {
	t0 := time.Now()
	edges, next, err := p.Repo.EdgesPage(runID, after, limit)
	p.rec.add(opEdgesPage, t0, nil, 0)
	return edges, next, err
}

func (p tracedRepo) Graph(runID string) (*opm.Graph, error) {
	t0 := time.Now()
	g, err := p.Repo.Graph(runID)
	p.rec.add(opGraph, t0, nil, 0)
	return g, err
}

// tracedWriter times the streaming sink of one run. The run-started delta is
// where the run's ID first becomes known.
type tracedWriter struct {
	provenance.RunWriter
	rec   *recorder
	run   *runTrace
	trace context.Context
}

func (w *tracedWriter) Emit(d provenance.Delta) error {
	t0 := time.Now()
	err := w.RunWriter.Emit(d)
	if d.Kind == provenance.DeltaRunStarted {
		w.rec.nameRun(w.run, d.Info.RunID)
	}
	w.rec.add(opEmit, t0, w.run, 0)
	return err
}

func (w *tracedWriter) Close() error {
	t0 := time.Now()
	err := w.RunWriter.Close()
	w.rec.add(opClose, t0, w.run, 0)
	w.rec.closeRun(w.trace, w.RunWriter.Metrics())
	return err
}

// ---- records ----

// traceRecords forwards the optional ScanTenant capability core probes for
// only when the wrapped store has it.
func traceRecords(inner fnjv.Records, rec *recorder) fnjv.Records {
	base := tracedRecords{Records: inner, rec: rec}
	if ts, ok := inner.(tenantScanner); ok {
		return &tracedTenantRecords{tracedRecords: base, tenant: ts}
	}
	return &base
}

type tenantScanner interface {
	ScanTenant(string, func(*fnjv.Record) bool) error
}

type tracedRecords struct {
	fnjv.Records
	rec *recorder
}

func (s *tracedRecords) DistinctSpecies() (map[string]int, error) {
	t0 := time.Now()
	m, err := s.Records.DistinctSpecies()
	s.rec.add(opDistinct, t0, nil, 0)
	return m, err
}

func (s *tracedRecords) Scan(fn func(*fnjv.Record) bool) error {
	t0 := time.Now()
	err := s.Records.Scan(fn)
	s.rec.add(opScan, t0, nil, 0)
	return err
}

func (s *tracedRecords) Query(pred fnjv.Predicate, opts fnjv.QueryOptions) ([]*fnjv.Record, error) {
	t0 := time.Now()
	recs, err := s.Records.Query(pred, opts)
	s.rec.add(opQuery, t0, nil, 0)
	return recs, err
}

type tracedTenantRecords struct {
	tracedRecords
	tenant tenantScanner
}

func (s *tracedTenantRecords) ScanTenant(tenant string, fn func(*fnjv.Record) bool) error {
	t0 := time.Now()
	err := s.tenant.ScanTenant(tenant, fn)
	s.rec.add(opScan, t0, nil, 0)
	return err
}

// ---- traces ----

type tracedTraces struct {
	telemetry.TraceStore
	rec *recorder
}

func (t tracedTraces) Append(runID string, spans []telemetry.Span) error {
	t0 := time.Now()
	err := t.TraceStore.Append(runID, spans)
	t.rec.add(opAppend, t0, t.rec.runOfID(runID), 0)
	return err
}

func (t tracedTraces) SpansPage(runID string, after, limit int) ([]telemetry.Span, int, error) {
	t0 := time.Now()
	spans, next, err := t.TraceStore.SpansPage(runID, after, limit)
	t.rec.add(opSpansPage, t0, nil, 0)
	return spans, next, err
}

func (t tracedTraces) Snapshot() telemetry.TraceStore {
	return tracedTraces{TraceStore: t.TraceStore.Snapshot(), rec: t.rec}
}
