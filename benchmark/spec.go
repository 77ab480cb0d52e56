package main

import (
	"time"

	"repro/internal/storage"
)

// metricDef is one named metric of the ledger. The end-to-end list and the
// per-layer list below are the single source of the names BENCHMARK.json
// declares (TestBenchmarkJSONMatchesSpec keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before a change counts as a regression. Per-layer
	// metrics carry no bound.
	Bound float64
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, measured with the benchmark's decorators off. Everything that
// is a time has the widest bound the driver allows: this box's speed drifts by
// tens of percent over seconds and minutes, and scaling the CPU-bound times to
// a reference speed (speed.go) takes out most of that, not all. The counts
// repeat to within a percent or two; allocs_per_run is looser because the
// asynchronous workload's client polls in the same process.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"detect_runs_per_s", "runs/s", "higher", 0.25},
	{"detect_p50_ms", "ms", "lower", 0.25},
	{"detect_p90_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"allocs_per_run", "allocs", "lower", 0.15},
	{"heap_kb_per_run", "KB", "lower", 0.10},
	{"disk_kb_per_run", "KB", "lower", 0.05},
	{"reopen_s", "s", "lower", 0.25},
}

// perLayer is the attribution table: one group per package of the repo, each
// measured from the benchmark's own decorators and from counters, spans and
// history the program already exposes. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{Name: "web.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "web.get_run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "web.get_runs_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "web.get_nodes_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "web.get_edges_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "web.get_spans_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "web.get_graph_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "web.get_records_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "web.runs_scan_ms", Unit: "ms", Better: "lower"},

	{Name: "cluster.admission_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.claim_to_complete_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.claims_per_run", Unit: "count", Better: "lower"},
	{Name: "cluster.lost_per_run", Unit: "count", Better: "lower"},
	{Name: "cluster.ticks", Unit: "count", Better: "lower"},

	{Name: "workflow.self_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "workflow.queue_wait_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "workflow.exec_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "workflow.history_events_per_run", Unit: "count", Better: "lower"},

	{Name: "taxonomy.resolve_calls_per_run", Unit: "count", Better: "lower"},
	{Name: "taxonomy.resolve_busy_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "taxonomy.upstream_attempts_per_run", Unit: "count", Better: "lower"},
	{Name: "taxonomy.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "taxonomy.degraded_per_run", Unit: "count", Better: "lower"},
	{Name: "taxonomy.batch_size_mean", Unit: "names", Better: "higher"},

	{Name: "provenance.emit_calls_per_run", Unit: "count", Better: "lower"},
	{Name: "provenance.emit_busy_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "provenance.blocked_emits_per_run", Unit: "count", Better: "lower"},
	{Name: "provenance.close_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "provenance.batches_per_run", Unit: "count", Better: "lower"},
	{Name: "provenance.avg_batch", Unit: "deltas", Better: "higher"},
	{Name: "provenance.flush_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "provenance.snapshot_us_p50", Unit: "us", Better: "lower"},
	{Name: "provenance.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "provenance.runs_page_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "provenance.nodes_page_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "provenance.edges_page_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "provenance.graph_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "provenance.quality_of_process_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "storage.wal_kb_per_run", Unit: "KB", Better: "lower"},
	{Name: "storage.meta_wal_kb_per_run", Unit: "KB", Better: "lower"},

	{Name: "shard.ops_per_run", Unit: "count", Better: "lower"},
	{Name: "shard.errors_per_run", Unit: "count", Better: "lower"},

	{Name: "telemetry.append_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "telemetry.spans_per_run", Unit: "count", Better: "lower"},
	{Name: "telemetry.spans_page_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "fnjv.distinct_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "fnjv.scan_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "fnjv.query_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "core.self_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.generator_lag_ms_p95", Unit: "ms", Better: "lower"},
}

// workloadSpec is one traffic shape. Every count in it is fixed: an epoch
// always performs the same operations from its seed on a fresh data
// directory, so two commits are compared in like states; --seconds only
// decides how many epochs a run takes its medians over.
type workloadSpec struct {
	Name string
	Why  string

	Records  int     // collection size (per tenant when Tenants > 0)
	Species  int     // distinct species names in it
	Outdated float64 // share of those names the authority has since renamed

	Shards      int
	Sync        storage.SyncPolicy
	CommitDelay time.Duration

	// Authority puts the loopback taxonomy.Service (2 ms, availability 0.9)
	// and the resilient client stack behind the resolver.
	Authority bool
	// Schedulers > 0 starts that many cluster.Scheduler pool members, which
	// turns POST /detect asynchronous (202 + poll).
	Schedulers int
	// Tenants > 0 seeds that many tenants, each pinned to its own shard, and
	// turns the quota gate on with non-binding limits.
	Tenants int

	// An epoch's window is Runs detections, after Warmups untimed ones, with
	// at most Clients in flight. With WriteRate 0 the loop is closed: Clients
	// goroutines each send their next request when the previous one returns.
	// With WriteRate > 0 it is open: requests are due at WriteRate per second
	// whatever became of the earlier ones. Requests go round the tenants.
	Clients   int
	Runs      int
	Warmups   int
	WriteRate int

	// ReadRate > 0 puts an open-loop reader of the read mix at ReadRate GET/s
	// beside the open-loop writer, for the same span, after Preload more
	// untimed runs have given it something to read. With ReadRate 0 the epoch
	// reads the mix once the window has closed, one read at a time, in
	// ReadBatches batches of BatchReads.
	ReadBatches int
	BatchReads  int
	Preload     int
	ReadRate    int

	// CPUBound says the window (and the set-up) is the CPU's work from end to
	// end, so its times are scaled to the reference speed (see speed.go). A
	// window that mostly waits on timers is reported as measured: scaling the
	// waits would add the machine's noise to them. The quiescent reads and the
	// reopen are the CPU's work on every workload.
	CPUBound bool

	// SideBySide > 1 runs that many epochs of the timed pass at the same
	// time, each in its own process. Only for a workload that mostly waits:
	// its epochs do not compete for the CPUs, and a run of a given length
	// then holds that many times the timer intervals its latencies hang on.
	SideBySide int
}

// paperOutdated is the share of outdated names the paper found (134 of 1929).
const paperOutdated = 134.0 / 1929.0

var workloads = []workloadSpec{
	{
		Name:    "sync_local",
		Why:     "in-process checklist, no fsync, one closed-loop client: engine, provenance capture, spans and scans do all the work; resolver changes must show nothing here",
		Records: 1200, Species: 200, Outdated: paperOutdated, Sync: storage.SyncOnClose,
		Clients: 1, Runs: 100, Warmups: 6, ReadBatches: 2, BatchReads: 400, CPUBound: true,
	},
	{
		Name:    "sync_authority",
		Why:     "every name crosses the resilient client stack to a 2 ms, 0.9-available loopback authority with a cold cache: waiting on taxonomy dominates, engine and storage do little",
		Records: 96, Species: 16, Outdated: paperOutdated, Sync: storage.SyncOnClose, Authority: true,
		Clients: 1, Runs: 100, Warmups: 2, ReadBatches: 5, BatchReads: 400, SideBySide: 4,
	},
	{
		Name: "async_sharded_durable",
		Why:  "open loop over 4 shards, SyncAlways with a 1 ms simulated device, quota gate, admission queue and scheduler pool: poll-timer waits and commit counts dominate, CPU does little",
		// No name is outdated here, so no run writes the curation ledger:
		// curation.Ledger.AddUpdates mints IDs from an unsynchronised counter,
		// and two runs finishing together collide on a duplicate key. The pool
		// has one member: two members claiming the same fresh admission at the
		// same moment leave the winner fenced out of its own queue, and its
		// run — and Scheduler.Stop — never return (see README).
		Records: 60, Species: 10, Outdated: 0, Shards: 4, Sync: storage.SyncAlways, CommitDelay: time.Millisecond,
		Schedulers: 1, Tenants: 4,
		Clients: 16, Runs: 100, Warmups: 4, ReadBatches: 8, BatchReads: 400, WriteRate: 4, SideBySide: 4,
	},
	{
		Name:    "read_under_write",
		Why:     "open-loop page reads race an open-loop writer over the same stores: a write-path gain that taxes snapshot reads moves read_* here and not detect_* elsewhere",
		Records: 600, Species: 100, Outdated: paperOutdated, Sync: storage.SyncOnClose,
		Clients: 1, Runs: 100, Warmups: 4, Preload: 20, WriteRate: 40, ReadRate: 200, CPUBound: true,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// halved is the workload at half its operations per epoch: a traced pass runs
// every epoch twice, decorators off and on.
func (w workloadSpec) halved() workloadSpec {
	w.Runs, w.ReadBatches = w.Runs/2, (w.ReadBatches+1)/2
	return w
}

// smoke shrinks a workload to roughly one thirtieth of its operations, for
// the tests that only prove the harness runs and verifies.
func (w workloadSpec) smoke() workloadSpec {
	w.Records = max(w.Records/10, 40)
	w.Species = max(w.Species/10, 8)
	shrink := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(n/30, floor)
	}
	w.Runs = shrink(w.Runs, w.Clients)
	w.Warmups = shrink(w.Warmups, 1)
	w.ReadBatches = min(w.ReadBatches, 1)
	w.BatchReads = shrink(w.BatchReads, 20)
	w.Preload = shrink(w.Preload, 2)
	return w
}
