package shard

import (
	"cmp"
	"strings"

	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/workflow"
)

// ProvenanceRouter implements provenance.Repo across the cluster. A run's
// entire state — run row, nodes, edges, history — lives on the shard that
// owns its run ID, so every per-run operation is a single-shard route;
// run listings and lineage fan-out scatter and merge under the same
// ordering and cursor contracts as the single Repository.
type ProvenanceRouter struct{ router }

var _ provenance.Repo = (*ProvenanceRouter)(nil)

func byRunID(a, b provenance.RunInfo) int { return cmp.Compare(a.RunID, b.RunID) }

// Snapshot implements provenance.Repo: the router itself (see the
// interface).
func (p *ProvenanceRouter) Snapshot() provenance.Repo { return p }

// RunWriter implements provenance.Repo with a lazily-routed writer: deltas
// buffer until the first one names the run, then stream to the owning
// shard's BatchWriter (see routedWriter).
func (p *ProvenanceRouter) RunWriter(opts provenance.BatchWriterOptions) (provenance.RunWriter, error) {
	return &routedWriter{router: p.router, opts: opts}, nil
}

// ResumeRunWriter implements provenance.Repo; the run ID is known, so the
// writer routes immediately.
func (p *ProvenanceRouter) ResumeRunWriter(runID string, opts provenance.BatchWriterOptions) (w provenance.RunWriter, err error) {
	err = p.route(runID, func(b backends) error {
		bw, err := b.prov.NewResumeWriter(runID, opts)
		if err == nil {
			w = bw
		}
		return err
	})
	return w, err
}

// Store implements provenance.Repo on the shard owning info.RunID.
func (p *ProvenanceRouter) Store(info provenance.RunInfo, g *opm.Graph) error {
	return p.route(info.RunID, func(b backends) error { return b.prov.Store(info, g) })
}

// Run implements provenance.Repo.
func (p *ProvenanceRouter) Run(runID string) (info provenance.RunInfo, err error) {
	err = p.route(runID, func(b backends) error {
		info, err = b.prov.Run(runID)
		return err
	})
	return info, err
}

// runLists scatters a run listing and merges it into run-ID order.
func (p *ProvenanceRouter) runLists(op string, list func(*provenance.Repository) ([]provenance.RunInfo, error)) ([]provenance.RunInfo, error) {
	lists, err := scatter(p.router, op, func(b backends) ([]provenance.RunInfo, error) { return list(b.prov) })
	if err != nil {
		return nil, err
	}
	runs, _ := merge(lists, byRunID, 0, false)
	return runs, nil
}

// Runs implements provenance.Repo.
func (p *ProvenanceRouter) Runs(workflowID string) ([]provenance.RunInfo, error) {
	return p.runLists("provenance.Runs", func(repo *provenance.Repository) ([]provenance.RunInfo, error) {
		return repo.Runs(workflowID)
	})
}

// AllRuns implements provenance.Repo. A lost shard is an error, never a
// shorter list: core seeds the run-ID counter from this answer.
func (p *ProvenanceRouter) AllRuns() ([]provenance.RunInfo, error) {
	return p.runLists("provenance.AllRuns", (*provenance.Repository).AllRuns)
}

// UnfinishedRuns implements provenance.Repo.
func (p *ProvenanceRouter) UnfinishedRuns() ([]provenance.RunInfo, error) {
	return p.runLists("provenance.UnfinishedRuns", (*provenance.Repository).UnfinishedRuns)
}

// RunsPage implements provenance.Repo. Every shard is asked for one run more
// than the page, so the union overflows the page exactly when another page
// exists; merge keeps the first limit runs and the next cursor is the last
// of them. That is the single repository's cursor sequence — valid and
// non-duplicating while shards take writes.
func (p *ProvenanceRouter) RunsPage(after string, limit int) ([]provenance.RunInfo, string, error) {
	if limit <= 0 {
		limit = provenance.DefaultRunsPage
	}
	lists, err := scatter(p.router, "provenance.RunsPage", func(b backends) ([]provenance.RunInfo, error) {
		runs, _, err := b.prov.RunsPage(after, limit+1)
		return runs, err
	})
	if err != nil {
		return nil, "", err
	}
	runs, more := merge(lists, byRunID, limit, false)
	next := ""
	if more {
		next = runs[len(runs)-1].RunID
	}
	return runs, next, nil
}

// NodesPage implements provenance.Repo.
func (p *ProvenanceRouter) NodesPage(runID, after string, limit int) (nodes []*opm.Node, next string, err error) {
	err = p.route(runID, func(b backends) error {
		nodes, next, err = b.prov.NodesPage(runID, after, limit)
		return err
	})
	return nodes, next, err
}

// EdgesPage implements provenance.Repo.
func (p *ProvenanceRouter) EdgesPage(runID string, after, limit int) (edges []opm.Edge, next int, err error) {
	err = p.route(runID, func(b backends) error {
		edges, next, err = b.prov.EdgesPage(runID, after, limit)
		return err
	})
	return edges, next, err
}

// Graph implements provenance.Repo.
func (p *ProvenanceRouter) Graph(runID string) (g *opm.Graph, err error) {
	err = p.route(runID, func(b backends) error {
		g, err = b.prov.Graph(runID)
		return err
	})
	return g, err
}

// QualityOfProcess implements provenance.Repo.
func (p *ProvenanceRouter) QualityOfProcess(runID, processor string) (q map[string]string, err error) {
	err = p.route(runID, func(b backends) error {
		q, err = b.prov.QualityOfProcess(runID, processor)
		return err
	})
	return q, err
}

// lineage scatters an artifact-lineage lookup and merges the run IDs sorted
// and deduplicated.
func (p *ProvenanceRouter) lineage(op string, lookup func(*provenance.Repository) ([]string, error)) ([]string, error) {
	lists, err := scatter(p.router, op, func(b backends) ([]string, error) { return lookup(b.prov) })
	if err != nil {
		return nil, err
	}
	ids, _ := merge(lists, strings.Compare, 0, true)
	return ids, nil
}

// RunsUsingArtifact implements provenance.Repo.
func (p *ProvenanceRouter) RunsUsingArtifact(artifactID string) ([]string, error) {
	return p.lineage("provenance.RunsUsingArtifact", func(repo *provenance.Repository) ([]string, error) {
		return repo.RunsUsingArtifact(artifactID)
	})
}

// History implements provenance.Repo.
func (p *ProvenanceRouter) History(runID string) (evs []workflow.HistoryEvent, err error) {
	err = p.route(runID, func(b backends) error {
		evs, err = b.prov.History(runID)
		return err
	})
	return evs, err
}
