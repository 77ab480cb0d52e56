package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/adapter"
	"repro/internal/cluster"
	"repro/internal/curation"
	"repro/internal/fnjv"
	"repro/internal/provenance"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// System wires the full architecture of Fig. 1: the collection store, the
// workflow repository and engine, the provenance manager and repository, the
// curation ledger and the quality manager. Unsharded, every component shares
// one embedded database; with Options.Shards > 1 the collection, provenance
// and trace stores are shard routers over a cluster of databases (package
// shard) and only the workflow repository and ledger stay on the meta
// database — either way the fields present the same interfaces, so
// everything above core is unaware of the topology.
type System struct {
	// DB is the single backing database when unsharded, and the meta
	// database (workflow repository, curation ledger) when sharded.
	DB *storage.DB
	// Cluster is the shard cluster; nil when unsharded.
	Cluster   *shard.Cluster
	Records   fnjv.Records
	Workflows *workflow.Repository
	Registry  *workflow.Registry
	// Dispatch counts the dispatch work of every event-engine run of this
	// system; the web layer serves it live.
	Dispatch   workflow.DispatchGauges
	Provenance provenance.Repo
	Ledger     *curation.Ledger
	// Leases is the set of run IDs executing in this process (package
	// cluster): every run is claimed here before any of its state is read and
	// released when its execution returns. It lives in memory: the directory
	// lock Open takes means no executor of this store's runs exists outside
	// this process.
	Leases *cluster.Owners
	// Admissions is the durable queue of admitted-but-unstarted runs: every
	// async detection request lands here with a pre-minted run ID, and the
	// scheduler pool drains it. Lives on DB (the meta database when sharded),
	// so a restarted process sees exactly the admissions the dead one left.
	Admissions *workflow.AdmissionQueue
	// Probe observes service executions (the Workflow Adapter's measured
	// quality byproducts).
	Probe *adapter.Probe
	// Traces is the persisted per-run span table: every finished detection
	// run's span tree lands here, keyed by run ID, queryable forever next to
	// the run's OPM graph.
	Traces telemetry.TraceStore
}

// Options configures Open.
type Options struct {
	// Sync is the WAL policy of the backing database(s). The zero value is
	// storage.SyncAlways; cmd/fnjvweb, cmd/orchestrator and cmd/curate
	// choose SyncOnClose.
	Sync storage.SyncPolicy
	// Shards > 1 opens a sharded system: records, provenance runs/history,
	// traces and archive holdings partition across that many shard databases
	// under dir (consistent hashing, persisted shard map), while workflow
	// definitions and the curation ledger stay on a meta database. 0 or 1 is
	// the single-database layout.
	Shards int
	// CommitDelay adds a deterministic simulated device latency to every
	// SyncAlways WAL commit (see storage.Options.CommitDelay). Load
	// experiments only; 0 in production.
	CommitDelay time.Duration
}

// Open opens (or creates) a preservation system rooted at dir.
func Open(dir string, opts Options) (*System, error) {
	if opts.Shards > 1 {
		return openSharded(dir, opts)
	}
	db, err := storage.Open(dir, storage.Options{Sync: opts.Sync, CommitDelay: opts.CommitDelay})
	if err != nil {
		return nil, err
	}
	s := &System{DB: db, Registry: workflow.NewRegistry(), Probe: adapter.NewProbe()}
	records, err := fnjv.NewStore(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	s.Records = records
	prov, err := provenance.NewRepository(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	s.Provenance = prov
	traces, err := telemetry.NewSpanStore(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	s.Traces = traces
	if err := s.openGlobal(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// openSharded opens the sharded layout: a shard cluster for the partitioned
// stores plus a meta database for the components that stay global.
func openSharded(dir string, opts Options) (*System, error) {
	shards, err := shard.Open(dir, shard.Options{
		Shards:      opts.Shards,
		Sync:        opts.Sync,
		CommitDelay: opts.CommitDelay,
	})
	if err != nil {
		return nil, err
	}
	db, err := storage.Open(filepath.Join(dir, "meta"), storage.Options{Sync: opts.Sync, CommitDelay: opts.CommitDelay})
	if err != nil {
		shards.Close()
		return nil, err
	}
	s := &System{
		DB:         db,
		Cluster:    shards,
		Registry:   workflow.NewRegistry(),
		Probe:      adapter.NewProbe(),
		Records:    shards.Records(),
		Provenance: shards.Provenance(),
		Traces:     shards.Traces(),
	}
	if err := s.openGlobal(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// openGlobal opens what lives on s.DB in both layouts — workflow repository,
// curation ledger, admission queue — plus the in-memory registries and
// ownership set, and seeds the run-ID counter from what the stores hold.
func (s *System) openGlobal() (err error) {
	if s.Workflows, err = workflow.NewRepository(s.DB); err != nil {
		return err
	}
	if s.Ledger, err = curation.NewLedger(s.DB); err != nil {
		return err
	}
	if s.Admissions, err = workflow.NewAdmissionQueue(s.DB); err != nil {
		return err
	}
	s.Leases = &cluster.Owners{}
	return s.seedRunCounter()
}

// seedRunCounter raises the process-wide run-ID counter past every ID this
// store already holds — stored runs and pending admissions, tenant qualifier
// stripped — so run IDs minted after a restart never collide with them.
func (s *System) seedRunCounter() error {
	raise := func(runID string) {
		_, id := shard.Split(runID)
		workflow.RaiseRunCounter(id)
	}
	runs, err := s.Provenance.AllRuns()
	if err != nil {
		return fmt.Errorf("core: seeding the run-ID counter: %w", err)
	}
	for _, info := range runs {
		raise(info.RunID)
	}
	pending, err := s.Admissions.Pending()
	for _, adm := range pending {
		raise(adm.RunID)
	}
	return err
}

// saveTrace stamps and persists the spans of one run. Resumed runs
// append after any spans the crashed session persisted.
func (s *System) saveTrace(runID string, spans []telemetry.Span) error {
	if runID == "" || len(spans) == 0 {
		return nil
	}
	telemetry.StampTrace(spans, runID)
	telemetry.DetachExternalParents(spans)
	return s.Traces.Append(runID, spans)
}

// Close flushes and closes the backing database(s).
func (s *System) Close() error {
	err := s.DB.Close()
	if s.Cluster != nil {
		if cerr := s.Cluster.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// DetectionWorkflowID is the repository ID of the case-study workflow.
const DetectionWorkflowID = "wf-outdated-species-detection"

// resolveResult is the JSON datum emitted per name by the Catalog_of_life
// processor.
type resolveResult struct {
	Name      string `json:"name"`
	Status    string `json:"status"` // accepted | synonym | provisionally accepted | unknown | unavailable
	Accepted  string `json:"accepted,omitempty"`
	Reference string `json:"reference,omitempty"`
	// Degraded marks an answer served from a stale cache during an authority
	// outage (see taxonomy.ResilientResolver) — usable, but visibly not fresh.
	Degraded bool `json:"degraded,omitempty"`
}

// detectionSummary is the JSON datum emitted by the Summarize processor —
// the Fig. 2 progress numbers.
type detectionSummary struct {
	DistinctNames int               `json:"distinct_names"`
	Outdated      int               `json:"outdated"`
	Unknown       int               `json:"unknown"`
	Unavailable   int               `json:"unavailable"`
	Degraded      int               `json:"degraded,omitempty"`
	Renames       map[string]string `json:"renames"`
	References    map[string]string `json:"references,omitempty"`
}

// resolveDatum renders one name's resolution as the Catalog_of_life output —
// the one place the single and the batch form of col.resolve classify an
// answer. Unknown and unavailable are data, not workflow failures: the
// pipeline must survive authority hiccups (availability 0.9). The error, not
// the resolution, decides between them — a failed call's resolution is
// whatever zero value its layer returned, and StatusAccepted is the zero
// Status: an unknown name is ErrUnknownName, and any other error means the
// authority gave no usable answer.
func resolveDatum(name string, res taxonomy.Resolution, err error) (map[string]workflow.Data, error) {
	rr := resolveResult{Name: name}
	switch {
	case err == nil:
		rr.Status = res.Status.String()
		rr.Accepted = res.AcceptedName
		rr.Degraded = res.Degraded
		if len(res.History) > 0 {
			rr.Reference = res.History[len(res.History)-1].Reference
		}
	case errors.Is(err, taxonomy.ErrUnknownName):
		rr.Status = "unknown"
	default:
		rr.Status = "unavailable"
	}
	blob, err := json.Marshal(rr)
	if err != nil {
		return nil, err
	}
	return map[string]workflow.Data{"result": workflow.Scalar(string(blob))}, nil
}

// RegisterDetectionServicesInto binds the case-study services to a service
// registry — the system's own, or a run's clone of it bound to another
// resolver. col.resolve gets a batch form exactly when the resolver can
// answer many names in one call (taxonomy.DetailedBatch) — the in-process
// Checklist and every layer of the HTTP client stack can: the engine then
// leases an iteration's ready names together and resolves them in one
// invocation under the activity's context. Only a resolver with no batch
// capability runs name by name.
func RegisterDetectionServicesInto(registry *workflow.Registry, resolver taxonomy.Resolver) {
	resolve := func(ctx context.Context, call workflow.Call) (map[string]workflow.Data, error) {
		name := call.Input("name").String()
		res, err := resolver.Resolve(ctx, name)
		return resolveDatum(name, res, err)
	}
	if batch := taxonomy.DetailedBatch(resolver); batch != nil {
		registry.RegisterBatch("col.resolve", resolve, func(ctx context.Context, calls []workflow.Call) []workflow.CallResult {
			names := make([]string, len(calls))
			for i, call := range calls {
				names[i] = call.Input("name").String()
			}
			details := batch.BatchResolveDetail(ctx, names)
			if len(details) != len(names) {
				return nil // a misaligned answer answers nothing: the engine fails the lease
			}
			out := make([]workflow.CallResult, len(details))
			for i, d := range details {
				out[i].Outputs, out[i].Err = resolveDatum(names[i], d.Resolution, d.Err)
			}
			return out
		})
	} else {
		registry.Register("col.resolve", resolve)
	}

	registry.Register("detect.summarize", func(_ context.Context, call workflow.Call) (map[string]workflow.Data, error) {
		sum := detectionSummary{Renames: map[string]string{}, References: map[string]string{}}
		for _, item := range call.Input("results").Items() {
			var rr resolveResult
			if err := json.Unmarshal([]byte(item.String()), &rr); err != nil {
				return nil, fmt.Errorf("summarize: bad result %q: %w", item.String(), err)
			}
			sum.DistinctNames++
			if rr.Degraded {
				sum.Degraded++
			}
			switch rr.Status {
			case "synonym":
				sum.Outdated++
				sum.Renames[rr.Name] = rr.Accepted
				sum.References[rr.Name] = rr.Reference
			case "provisionally accepted":
				sum.Outdated++
				sum.Renames[rr.Name] = "Nomen inquirendum"
				sum.References[rr.Name] = rr.Reference
			case "unknown":
				sum.Unknown++
			case "unavailable":
				sum.Unavailable++
			}
		}
		blob, err := json.Marshal(sum)
		if err != nil {
			return nil, err
		}
		return map[string]workflow.Data{"summary": workflow.Scalar(string(blob))}, nil
	})
}

// DetectionWorkflow builds the Fig. 3 workflow: FNJV sound metadata in,
// Catalogue-of-Life check per name, summary of updated species names out.
func DetectionWorkflow() *workflow.Definition {
	return &workflow.Definition{
		ID:          DetectionWorkflowID,
		Name:        "Outdated Species Name Detection Workflow",
		Description: "checks FNJV species names against the Catalogue of Life and summarizes outdated ones",
		Inputs:      []workflow.Port{{Name: "names", Depth: 1}},
		Outputs:     []workflow.Port{{Name: "summary"}},
		Processors: []*workflow.Processor{
			{
				Name: "Catalog_of_life", Service: "col.resolve",
				Inputs:  []workflow.Port{{Name: "name", Depth: 0}},
				Outputs: []workflow.Port{{Name: "result", Depth: 0}},
			},
			{
				Name: "Summarize", Service: "detect.summarize",
				Inputs:  []workflow.Port{{Name: "results", Depth: 1}},
				Outputs: []workflow.Port{{Name: "summary", Depth: 0}},
			},
		},
		Links: []workflow.Link{
			{Source: workflow.Endpoint{Port: "names"}, Target: workflow.Endpoint{Processor: "Catalog_of_life", Port: "name"}},
			{Source: workflow.Endpoint{Processor: "Catalog_of_life", Port: "result"}, Target: workflow.Endpoint{Processor: "Summarize", Port: "results"}},
			{Source: workflow.Endpoint{Processor: "Summarize", Port: "summary"}, Target: workflow.Endpoint{Port: "summary"}},
		},
	}
}

// AnnotatedDetectionWorkflow returns the detection workflow instrumented by
// the Workflow Adapter with the paper's Listing 1 quality annotations.
func AnnotatedDetectionWorkflow(reputation, availability string, author string, when time.Time) (*workflow.Definition, error) {
	return adapter.AddQualityAnnotations(DetectionWorkflow(), "Catalog_of_life",
		map[string]string{"reputation": reputation, "availability": availability},
		author, when)
}

// TenantDistinctNames returns the sorted distinct species names of one
// tenant's records — the records whose IDs carry the tenant qualifier; the
// default tenant "" is the whole collection — as workflow input data. A
// blank species is not a name. A sharded store reads only the tenant's own
// shard (tenant affinity): the tenant keeps serving while unrelated shards
// are down.
func (s *System) TenantDistinctNames(tenant string) ([]string, error) {
	set := map[string]struct{}{}
	err := s.Records.ScanSpecies(tenant, func(_, species string) bool {
		if species != "" {
			set[species] = struct{}{}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
