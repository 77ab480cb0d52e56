package web

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/curation"
	"repro/internal/fnjv"
	"repro/internal/obs"
	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// errNotFound marks a lookup miss; HTML handlers map it to http.NotFound and
// the JSON API to a not_found envelope.
var errNotFound = errors.New("web: not found")

// Service is the read/command layer both front ends consume: the HTML pages
// and the /api/v1 JSON handlers are thin renderers over these methods, so
// the two can never drift apart on what a "run" or "trace" is.
type Service struct {
	sys *System
}

// NewService wraps the shared system state.
func NewService(sys *System) *Service { return &Service{sys: sys} }

// Detect executes the detection workflow for the context's tenant, traced
// from the HTTP boundary down when the context carries a request's tracer.
func (v *Service) Detect(ctx context.Context) (*core.DetectionOutcome, error) {
	return v.sys.Core.RunDetection(ctx, v.sys.Resolver, core.RunOptions{Tenant: TenantFrom(ctx)})
}

// Outcome reads a completed detection run back from storage: runID's, or
// with runID "" the tenant's latest. errNotFound when there is none.
func (v *Service) Outcome(tenant, runID string) (*core.DetectionOutcome, error) {
	if runID == "" {
		runs, err := v.sys.Core.CompletedDetections(tenant)
		if err != nil {
			return nil, err
		}
		if len(runs) == 0 {
			return nil, fmt.Errorf("%w: tenant %q has no completed detection run", errNotFound, tenant)
		}
		runID = runs[len(runs)-1].RunID
	}
	outcome, err := v.sys.Core.StoredOutcome(runID)
	if errors.Is(err, core.ErrNoOutcome) {
		return nil, fmt.Errorf("%w: %v", errNotFound, err)
	}
	return outcome, err
}

// Dispatch returns the dispatch gauges live across every run: tasks ready,
// tasks a worker holds, and tasks finished.
func (v *Service) Dispatch() map[string]float64 {
	return v.sys.Core.Dispatch.Counters()
}

// AdmissionStats is the admission queue's live view: depth plus the queued
// runs in FIFO order.
type AdmissionStats struct {
	Depth   int
	Pending []workflow.Admission
}

// Admissions snapshots the durable admission queue.
func (v *Service) Admissions() (AdmissionStats, error) {
	pending, err := v.sys.Core.Admissions.Pending()
	if err != nil {
		return AdmissionStats{}, err
	}
	return AdmissionStats{Depth: len(pending), Pending: pending}, nil
}

// AsyncDetect reports whether admitted runs will actually execute: a
// scheduler member is running in this process. Without one POST
// /api/v1/detect stays synchronous — admitting a run nobody drains would
// accept work into a black hole.
func (v *Service) AsyncDetect() bool {
	return v.sys.Scheduler != nil
}

// Admit records the intent to run detection for the context's tenant and
// returns the pre-minted run identity without executing anything.
func (v *Service) Admit(ctx context.Context) (workflow.Admission, error) {
	return v.sys.Core.AdmitDetection(core.RunOptions{Tenant: TenantFrom(ctx)})
}

// API reads go to the live stores while runs keep committing: each store
// call is atomic with respect to commits (DESIGN.md "Reads").

// RunsPage pages provenance runs through the repository cursor.
func (v *Service) RunsPage(after string, limit int) ([]provenance.RunInfo, string, error) {
	return v.sys.Core.Provenance.RunsPage(after, limit)
}

// Run loads one run's info; errNotFound when the ID is unknown.
func (v *Service) Run(runID string) (provenance.RunInfo, error) {
	info, err := v.sys.Core.Provenance.Run(runID)
	if err != nil {
		return provenance.RunInfo{}, fmt.Errorf("%w: run %q", errNotFound, runID)
	}
	return info, nil
}

// RunFinished reports whether the run can no longer change: completed,
// failed, or abandoned runs have immutable provenance and traces, which is
// what makes their API representations ETag-cacheable.
func RunFinished(info provenance.RunInfo) bool {
	return info.Status != provenance.RunRunning
}

// RunGraphXML serializes the run's OPM graph, returning the run info so the
// caller can decide cacheability. Info and graph are two reads, yet a
// finished info always comes with the final graph: a run reads terminal only
// once its last rows have committed.
func (v *Service) RunGraphXML(runID string) ([]byte, provenance.RunInfo, error) {
	info, err := v.Run(runID)
	if err != nil {
		return nil, info, err
	}
	g, err := v.sys.Core.Provenance.Graph(runID)
	if err != nil {
		return nil, info, fmt.Errorf("%w: graph of run %q", errNotFound, runID)
	}
	return opm.MarshalXML(g), info, nil
}

// RunNodesPage pages the run's provenance nodes.
func (v *Service) RunNodesPage(runID, after string, limit int) ([]*opm.Node, string, error) {
	if _, err := v.Run(runID); err != nil {
		return nil, "", err
	}
	return v.sys.Core.Provenance.NodesPage(runID, after, limit)
}

// RunEdgesPage pages the run's dependency edges.
func (v *Service) RunEdgesPage(runID string, after, limit int) ([]opm.Edge, int, error) {
	if _, err := v.Run(runID); err != nil {
		return nil, -1, err
	}
	return v.sys.Core.Provenance.EdgesPage(runID, after, limit)
}

// Trace is a run's persisted span tree plus the facts the API reports about
// it: how many spans, and whether they form one connected tree.
type Trace struct {
	Info     provenance.RunInfo
	Spans    []telemetry.Span
	Roots    []*telemetry.TraceNode
	Complete bool
}

// RunTrace loads the run's full persisted trace. errNotFound covers both an
// unknown run and a run that recorded no spans (untraced or crashed).
func (v *Service) RunTrace(runID string) (*Trace, error) {
	info, err := v.Run(runID)
	if err != nil {
		return nil, err
	}
	spans, err := v.sys.Core.Traces.Spans(runID)
	if errors.Is(err, telemetry.ErrTraceNotFound) {
		return nil, fmt.Errorf("%w: no trace recorded for run %q", errNotFound, runID)
	}
	if err != nil {
		return nil, err
	}
	roots, _ := telemetry.BuildTree(spans)
	return &Trace{
		Info:     info,
		Spans:    spans,
		Roots:    roots,
		Complete: telemetry.TreeComplete(spans) == nil,
	}, nil
}

// RunSpansPage pages the run's flat span list by sequence cursor.
func (v *Service) RunSpansPage(runID string, after, limit int) ([]telemetry.Span, int, error) {
	if _, err := v.Run(runID); err != nil {
		return nil, -1, err
	}
	spans, next, err := v.sys.Core.Traces.SpansPage(runID, after, limit)
	if err != nil {
		return nil, -1, err
	}
	if after < 0 && len(spans) == 0 {
		return nil, -1, fmt.Errorf("%w: no trace recorded for run %q", errNotFound, runID)
	}
	return spans, next, nil
}

// SearchRecords queries the collection by the dashboard's filter fields.
// Empty filters match everything (the limit still applies).
func (v *Service) SearchRecords(species, state, taxon string, limit int) ([]*fnjv.Record, error) {
	pred := fnjv.Predicate{Species: species, State: state, Taxon: taxon}
	return v.sys.Core.Records.Query(pred, fnjv.QueryOptions{Limit: limit, OrderBy: "species"})
}

// RecordDetail is one record with its curation state.
type RecordDetail struct {
	Record  *fnjv.Record
	Curated string
	Updates []*curation.NameUpdate
	History []curation.HistoryEntry
}

// Record loads one record plus its curated name, pending/resolved updates
// and curation history.
func (v *Service) Record(id string) (*RecordDetail, error) {
	rec, err := v.sys.Core.Records.Get(id)
	if err != nil {
		return nil, fmt.Errorf("%w: record %q", errNotFound, id)
	}
	curated, err := curation.CuratedName(v.sys.Core.Ledger, rec.ID, rec.Species)
	if err != nil {
		return nil, err
	}
	d := &RecordDetail{Record: rec, Curated: curated}
	if ups, err := v.sys.Core.Ledger.UpdatesForRecord(rec.ID); err == nil {
		d.Updates = ups
	}
	if hist, err := v.sys.Core.Ledger.History(rec.ID); err == nil {
		d.History = hist
	}
	return d, nil
}

// MetricsEntry is one subsystem's runtime counters as an observation — the
// shape both /metrics and /api/v1/metrics serve.
type MetricsEntry struct {
	ID           string             `json:"id"`
	Entity       string             `json:"entity"`
	At           time.Time          `json:"at"`
	Protocol     string             `json:"protocol"`
	Measurements map[string]float64 `json:"measurements"`
}

// Metrics snapshots every instrumented subsystem — crash recovery, dispatch
// gauges, scheduler, admission queue, resolution resilience — as
// observations, sorted by subsystem name.
func (v *Service) Metrics(at time.Time) []MetricsEntry {
	subsystems := map[string]map[string]float64{
		// Crash-recovery activity: runs resumed, runs abandoned, sweeps.
		"recovery": core.RecoveryCounters(),
		// Dispatch gauges, live across runs.
		"workers": v.Dispatch(),
	}
	if c := v.sys.Core.Cluster; c != nil {
		subsystems["shard-router"] = c.Counters()
	}
	if sch := v.sys.Scheduler; sch != nil {
		// Claim/complete/interrupted counts of this process's pool member.
		subsystems["cluster-scheduler"] = sch.Counters()
	}
	subsystems["admission-queue"] = map[string]float64{
		"admissions.depth": float64(v.sys.Core.Admissions.Depth()),
	}
	if q := v.sys.Quotas; q != nil {
		// Includes the per-tenant spend (tenant.<name>.spent).
		subsystems["tenant-quotas"] = q.Counters()
	}
	if rr := v.sys.Resilient; rr != nil {
		subsystems["resolution-resilience"] = rr.Counters()
	}
	names := make([]string, 0, len(subsystems))
	for name := range subsystems {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]MetricsEntry, 0, len(names))
	for _, name := range names {
		o := obs.FromRuntimeMetrics(name, at, subsystems[name])
		ms := make(map[string]float64, len(o.Measurements))
		for _, m := range o.Measurements {
			ms[m.Characteristic] = m.Number
		}
		out = append(out, MetricsEntry{
			ID: o.ID, Entity: o.Entity.ID, At: o.At, Protocol: o.Protocol, Measurements: ms,
		})
	}
	return out
}
