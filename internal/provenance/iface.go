package provenance

import (
	"repro/internal/opm"
	"repro/internal/workflow"
)

// RunWriter is the streaming persistence surface of one run: a delta Sink
// plus the lifecycle and instrumentation methods of BatchWriter. Both the
// single-repository BatchWriter and the shard router's lazily-routed writer
// satisfy it, so core can stream a run's provenance without knowing which
// physical repository will own the rows.
type RunWriter interface {
	Sink
	// Close stops the writer after flushing everything emitted so far.
	Close() error
	// Err returns the first persistence error, if any.
	Err() error
	// Metrics snapshots the writer's counters.
	Metrics() WriterMetrics
}

// Repo is the provenance-repository surface consumed by core, the web
// service and the preservation manager. *Repository implements it directly;
// shard.ProvenanceRouter implements it by routing per-run operations to the
// owning shard and scatter-gathering cross-run queries.
type Repo interface {
	// RunWriter opens a streaming writer for a new run.
	RunWriter(opts BatchWriterOptions) (RunWriter, error)
	// ResumeRunWriter opens a streaming writer that continues the stored
	// history of an interrupted run. Ending it with DeltaRunFinished is also
	// how an unfinished run is abandoned.
	ResumeRunWriter(runID string, opts BatchWriterOptions) (RunWriter, error)
	// Store persists a finished run and its graph in one commit.
	Store(info RunInfo, g *opm.Graph) error

	Run(runID string) (RunInfo, error)
	Runs(workflowID string) ([]RunInfo, error)
	AllRuns() ([]RunInfo, error)
	RunsPage(after string, limit int) ([]RunInfo, string, error)
	NodesPage(runID, after string, limit int) ([]*opm.Node, string, error)
	EdgesPage(runID string, after, limit int) ([]opm.Edge, int, error)
	Graph(runID string) (*opm.Graph, error)
	QualityOfProcess(runID, processor string) (map[string]string, error)
	RunsUsingArtifact(artifactID string) ([]string, error)

	History(runID string) ([]workflow.HistoryEvent, error)
	UnfinishedRuns() ([]RunInfo, error)

	// Snapshot returns the repository itself. It is kept only because the
	// benchmark module's tracing decorator calls it; nothing else does, and
	// every read is already one atomic call against the live repository.
	Snapshot() Repo
}

// RunWriter implements Repo over the repository's BatchWriter.
func (r *Repository) RunWriter(opts BatchWriterOptions) (RunWriter, error) {
	return r.NewBatchWriter(opts), nil
}

// ResumeRunWriter implements Repo over the repository's resume writer.
func (r *Repository) ResumeRunWriter(runID string, opts BatchWriterOptions) (RunWriter, error) {
	return r.NewResumeWriter(runID, opts)
}

// Snapshot implements Repo: the repository itself (see the interface).
func (r *Repository) Snapshot() Repo { return r }

var _ Repo = (*Repository)(nil)
var _ RunWriter = (*BatchWriter)(nil)
