package provenance

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/opm"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// Repository is the Data Provenance Repository (Fig. 1): durable storage of
// captured runs and their OPM graphs, following Malaverri's model — run
// records plus node and edge relations keyed by run. Runs arrive either
// monolithically (Store) or as a live history stream whose last delta
// carries the graph (NewBatchWriter); both write a graph in one commit with
// the run's terminal status, through the same row builder. Every read method
// is one or more Table calls, each atomic with respect to commits.
type Repository struct {
	db *storage.DB
}

// Table names.
const (
	runsTable    = "prov_runs"
	nodesTable   = "prov_nodes"
	edgesTable   = "prov_edges"
	historyTable = "prov_history"
)

var (
	runsSchema = storage.MustSchema(runsTable,
		storage.Column{Name: "run_id", Kind: storage.KindString},
		storage.Column{Name: "workflow_id", Kind: storage.KindString},
		storage.Column{Name: "workflow_name", Kind: storage.KindString},
		storage.Column{Name: "started_at", Kind: storage.KindTime},
		storage.Column{Name: "finished_at", Kind: storage.KindTime, Nullable: true},
		storage.Column{Name: "status", Kind: storage.KindString},
		storage.Column{Name: "error", Kind: storage.KindString, Nullable: true},
	)
	nodesSchema = storage.MustSchema(nodesTable,
		storage.Column{Name: "key", Kind: storage.KindString}, // run/node
		storage.Column{Name: "run_id", Kind: storage.KindString},
		storage.Column{Name: "node_id", Kind: storage.KindString},
		storage.Column{Name: "kind", Kind: storage.KindInt},
		storage.Column{Name: "label", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "value", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "annotations", Kind: storage.KindBytes, Nullable: true},
	)
	edgesSchema = storage.MustSchema(edgesTable,
		storage.Column{Name: "key", Kind: storage.KindString}, // run/seq
		storage.Column{Name: "run_id", Kind: storage.KindString},
		storage.Column{Name: "kind", Kind: storage.KindInt},
		storage.Column{Name: "effect", Kind: storage.KindString},
		storage.Column{Name: "cause", Kind: storage.KindString},
		storage.Column{Name: "role", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "account", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "time", Kind: storage.KindTime, Nullable: true},
	)
	historySchema = storage.MustSchema(historyTable,
		storage.Column{Name: "key", Kind: storage.KindString}, // run/seq
		storage.Column{Name: "run_id", Kind: storage.KindString},
		storage.Column{Name: "seq", Kind: storage.KindInt},
		storage.Column{Name: "payload", Kind: storage.KindBytes}, // JSON workflow.HistoryEvent
	)
)

// ErrRunNotFound is returned for unknown run IDs.
var ErrRunNotFound = errors.New("provenance: run not found")

// NewRepository opens (creating if needed) the provenance repository in db.
// Repositories created by earlier versions are upgraded in place: the
// lineage index on edge cause is backfilled when missing. The run-keyed
// tables (nodes, edges, history) have no run_id index: their keys are
// "runID/…", so a run's rows are one primary-key range (scanRun). A
// directory an earlier version created keeps the run_id and edge effect
// indexes it made; storage maintains them and nothing reads them.
func NewRepository(db *storage.DB) (*Repository, error) {
	if db.Table(runsTable) == nil {
		if err := db.Apply(
			storage.CreateTableOp(runsSchema),
			storage.CreateTableOp(nodesSchema),
			storage.CreateTableOp(edgesSchema),
			storage.CreateIndexOp(runsTable, "workflow_id"),
		); err != nil {
			return nil, err
		}
	}
	// Lineage index (added after the first release): RunsUsingArtifact
	// resolves through it instead of a full edge scan.
	if !db.Table(edgesTable).HasIndex("cause") {
		if err := db.CreateIndex(edgesTable, "cause"); err != nil {
			return nil, err
		}
	}
	// History table (added with the event-sourced engine): repositories
	// written by earlier versions gain it — their old runs simply have no
	// history and are not resumable by replay.
	if db.Table(historyTable) == nil {
		if err := db.CreateTable(historySchema); err != nil {
			return nil, err
		}
	}
	// Status index: the startup sweep probes for unfinished runs instead of
	// scanning the whole run table.
	if !db.Table(runsTable).HasIndex("status") {
		if err := db.CreateIndex(runsTable, "status"); err != nil {
			return nil, err
		}
	}
	return &Repository{db: db}, nil
}

// --- row builders, shared by Store and the BatchWriter so both persistence
// paths produce byte-identical rows. They append into a caller value arena,
// so the streaming writer's steady state allocates no row slices. ---

func appendRunRow(dst []storage.Value, info RunInfo) []storage.Value {
	return append(dst,
		storage.S(info.RunID),
		storage.S(info.WorkflowID),
		storage.S(info.WorkflowName),
		storage.T(info.StartedAt),
		timeOrNull(info.FinishedAt),
		storage.S(string(info.Status)),
		storage.S(info.Error),
	)
}

func nodeKey(runID, nodeID string) string { return runID + "/" + nodeID }

func appendNodeRow(dst []storage.Value, runID string, n opm.Node, ann []byte) []storage.Value {
	return append(dst,
		storage.S(nodeKey(runID, n.ID)),
		storage.S(runID),
		storage.S(n.ID),
		storage.I(int64(n.Kind)),
		storage.S(n.Label),
		storage.S(n.Value),
		storage.Bytes(ann),
	)
}

// maxEdgeSeq is the highest sequence edgeKey renders in its six digits. Keys
// past it no longer sort by sequence, so EdgesPage reads nothing after it.
const maxEdgeSeq = 999999

// edgeKey renders "runID/seq" with the sequence zero-padded to six digits —
// the persisted key format, so the rendering must never change. The manual
// formatting keeps the per-edge cost at the single string allocation.
func edgeKey(runID string, seq int) string {
	if seq < 0 || seq > maxEdgeSeq {
		return fmt.Sprintf("%s/%06d", runID, seq) // out-of-range: defer to fmt's widening
	}
	var d [7]byte
	d[0] = '/'
	v := seq
	for i := 6; i >= 1; i-- {
		d[i] = byte('0' + v%10)
		v /= 10
	}
	return runID + string(d[:])
}

func appendEdgeRow(dst []storage.Value, runID string, seq int, e opm.Edge) []storage.Value {
	return append(dst,
		storage.S(edgeKey(runID, seq)),
		storage.S(runID),
		storage.I(int64(e.Kind)),
		storage.S(e.Effect),
		storage.S(e.Cause),
		storage.S(e.Role),
		storage.S(e.Account),
		timeOrNull(e.Time),
	)
}

// rowBuilder collects the ops of one commit, carving their rows out of
// reusable arenas: a value arena, the annotation-blob encoder and the history
// payload arena. Reuse is safe because Apply retains no caller memory — the
// WAL buffers its record, and a stored row is the commit's own copy of the
// cells and of every bytes payload (storage.Row.Clone; only immutable strings
// are shared). Once warm, a row costs its key string.
type rowBuilder struct {
	ops      []storage.Op
	vals     []storage.Value
	ann      annEncoder
	payloads []byte
}

// reset empties the builder for the next commit, dropping its row references.
func (b *rowBuilder) reset() {
	clear(b.ops)
	b.ops, b.vals, b.payloads = b.ops[:0], b.vals[:0], b.payloads[:0]
	b.ann.Reset()
}

// add seals the values appended to the arena since start as one row.
func (b *rowBuilder) add(op func(string, storage.Row) storage.Op, table string, start int) {
	b.ops = append(b.ops, op(table, storage.Row(b.vals[start:len(b.vals):len(b.vals)])))
}

func (b *rowBuilder) run(op func(string, storage.Row) storage.Op, info RunInfo) {
	start := len(b.vals)
	b.vals = appendRunRow(b.vals, info)
	b.add(op, runsTable, start)
}

func (b *rowBuilder) history(runID string, ev *workflow.HistoryEvent) (err error) {
	start := len(b.vals)
	if b.vals, b.payloads, err = appendHistoryRow(b.vals, b.payloads, runID, ev); err == nil {
		b.add(storage.InsertOp, historyTable, start)
	}
	return err
}

// graph inserts every node row of g, then every edge row, sequenced in the
// graph's edge order.
func (b *rowBuilder) graph(runID string, g *opm.Graph) {
	for _, n := range g.Nodes() {
		start := len(b.vals)
		b.vals = appendNodeRow(b.vals, runID, *n, b.ann.Encode(n.Annotations))
		b.add(storage.InsertOp, nodesTable, start)
	}
	for i, e := range g.Edges() {
		start := len(b.vals)
		b.vals = appendEdgeRow(b.vals, runID, i, e)
		b.add(storage.InsertOp, edgesTable, start)
	}
}

// Store persists a finished run and its graph in one commit — the path for
// graphs built outside a workflow run (archive audits, imports). Workflow
// runs stream through NewBatchWriter instead, which ends them through the
// same row builder.
func (r *Repository) Store(info RunInfo, g *opm.Graph) error {
	if err := checkRunID(info.RunID); err != nil {
		return err
	}
	var b rowBuilder
	b.run(storage.InsertOp, info)
	b.graph(info.RunID, g)
	return r.db.Apply(b.ops...)
}

// checkRunID rejects a run ID the run-keyed tables cannot hold: an empty one,
// or one containing "/", the separator of their "runID/…" keys — the rows of
// run "a/b" would fall inside run "a"'s key range.
func checkRunID(runID string) error {
	switch {
	case runID == "":
		return fmt.Errorf("provenance: run has no ID")
	case strings.Contains(runID, "/"):
		return fmt.Errorf("provenance: run ID %q contains %q", runID, "/")
	}
	return nil
}

// scanRun walks one run's rows of a run-keyed table in primary-key order,
// from key from on (runID+"/" for the first). Every key is "runID/…" and a
// run ID holds no "/", so a run's rows are one key range and the walk stops
// at the first row of another run; fn returning false stops it sooner.
func (r *Repository) scanRun(s *storage.Schema, runID, from string, fn func(storage.Row) bool) {
	r.db.Table(s.Table).ScanFrom(storage.S(from), func(row storage.Row) bool {
		return row.Get(s, "run_id").Str() == runID && fn(row)
	})
}

func timeOrNull(t time.Time) storage.Value {
	if t.IsZero() {
		return storage.Null()
	}
	return storage.T(t)
}

// Run loads the summary of one run.
func (r *Repository) Run(runID string) (RunInfo, error) {
	row, err := r.db.Table(runsTable).Get(storage.S(runID))
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return RunInfo{}, fmt.Errorf("%w: %q", ErrRunNotFound, runID)
		}
		return RunInfo{}, err
	}
	return rowToInfo(row), nil
}

func rowToInfo(row storage.Row) RunInfo {
	info := RunInfo{
		RunID:        row.Get(runsSchema, "run_id").Str(),
		WorkflowID:   row.Get(runsSchema, "workflow_id").Str(),
		WorkflowName: row.Get(runsSchema, "workflow_name").Str(),
		StartedAt:    row.Get(runsSchema, "started_at").Time(),
		Status:       RunStatus(row.Get(runsSchema, "status").Str()),
		Error:        row.Get(runsSchema, "error").Str(),
	}
	if v := row.Get(runsSchema, "finished_at"); !v.IsNull() {
		info.FinishedAt = v.Time()
	}
	return info
}

// Runs lists every run of a workflow, ordered by run ID.
func (r *Repository) Runs(workflowID string) ([]RunInfo, error) {
	rows, err := r.db.Table(runsTable).Lookup("workflow_id", storage.S(workflowID))
	if err != nil {
		return nil, err
	}
	out := make([]RunInfo, 0, len(rows))
	for _, row := range rows {
		out = append(out, rowToInfo(row))
	}
	return out, nil
}

// AllRuns lists every stored run in run-ID order. A single repository
// cannot fail the scan; the error is the shard router's, which must never
// answer a lost shard with a shorter list.
func (r *Repository) AllRuns() ([]RunInfo, error) {
	var out []RunInfo
	r.db.Table(runsTable).Scan(func(row storage.Row) bool {
		out = append(out, rowToInfo(row))
		return true
	})
	return out, nil
}

// DefaultRunsPage is the page size RunsPage applies when the caller's limit
// is not positive. The shard router resolves the same size before it merges
// per-shard pages, so sharded and unsharded cursor walks are identical.
const DefaultRunsPage = 50

// RunsPage returns up to limit runs with run ID strictly greater than after
// ("" starts at the beginning), in run-ID order, plus the cursor to pass as
// after for the next page ("" when this was the last page). This is the read
// API dashboards page through instead of materializing every run at once.
func (r *Repository) RunsPage(after string, limit int) ([]RunInfo, string, error) {
	if limit <= 0 {
		limit = DefaultRunsPage
	}
	out := make([]RunInfo, 0, limit)
	more := false
	r.db.Table(runsTable).ScanFrom(storage.S(after), func(row storage.Row) bool {
		info := rowToInfo(row)
		if info.RunID == after {
			return true // ScanFrom is inclusive; pagination resumes after
		}
		if len(out) == limit {
			more = true
			return false
		}
		out = append(out, info)
		return true
	})
	next := ""
	if more && len(out) > 0 {
		next = out[len(out)-1].RunID
	}
	return out, next, nil
}

// graphWritten reads the run row: a run's graph rows commit together with
// its terminal status, so a running run has none yet and its graph, node and
// edge reads answer empty — a reader sees nothing or the whole final graph.
// Graph rows an older version streamed for an interrupted run stay hidden
// the same way until the run's end replaces them.
func (r *Repository) graphWritten(runID string) (bool, error) {
	info, err := r.Run(runID)
	return err == nil && info.Status != RunRunning, err
}

// NodesPage returns up to limit of a run's OPM nodes whose node ID is
// strictly greater than after (""), in node-ID order, with the next-page
// cursor. The rows are read by primary-key range, never a table scan.
func (r *Repository) NodesPage(runID, after string, limit int) ([]*opm.Node, string, error) {
	written, err := r.graphWritten(runID)
	if err != nil {
		return nil, "", err
	}
	if limit <= 0 {
		limit = 500
	}
	out := make([]*opm.Node, 0, limit)
	if !written {
		return out, "", nil
	}
	more := false
	var scanErr error
	r.scanRun(nodesSchema, runID, nodeKey(runID, after), func(row storage.Row) bool {
		n, err := rowToNode(row)
		if err != nil {
			scanErr = err
			return false
		}
		if n.ID == after {
			return true
		}
		if len(out) == limit {
			more = true
			return false
		}
		out = append(out, n)
		return true
	})
	if scanErr != nil {
		return nil, "", scanErr
	}
	next := ""
	if more && len(out) > 0 {
		next = out[len(out)-1].ID
	}
	return out, next, nil
}

// EdgesPage returns up to limit of a run's edges with sequence number
// strictly greater than after (-1 starts at the beginning), in capture
// order, plus the cursor for the next page (-1 when exhausted). A cursor at
// or past the last sequence reads an empty page.
func (r *Repository) EdgesPage(runID string, after, limit int) ([]opm.Edge, int, error) {
	written, err := r.graphWritten(runID)
	if err != nil {
		return nil, -1, err
	}
	if limit <= 0 {
		limit = 500
	}
	out := make([]opm.Edge, 0, limit)
	next := -1
	if !written || after >= maxEdgeSeq {
		return out, next, nil
	}
	seq := after
	r.scanRun(edgesSchema, runID, edgeKey(runID, after+1), func(row storage.Row) bool {
		if len(out) == limit {
			next = seq
			return false
		}
		out = append(out, rowToEdge(row))
		seq++
		return true
	})
	return out, next, nil
}

func rowToNode(row storage.Row) (*opm.Node, error) {
	ann, err := decodeAnnotations(row.Get(nodesSchema, "annotations").Raw())
	if err != nil {
		return nil, err
	}
	return &opm.Node{
		ID:          row.Get(nodesSchema, "node_id").Str(),
		Kind:        opm.NodeKind(row.Get(nodesSchema, "kind").Int()),
		Label:       row.Get(nodesSchema, "label").Str(),
		Value:       row.Get(nodesSchema, "value").Str(),
		Annotations: ann,
	}, nil
}

func rowToEdge(row storage.Row) opm.Edge {
	e := opm.Edge{
		Kind:    opm.EdgeKind(row.Get(edgesSchema, "kind").Int()),
		Effect:  row.Get(edgesSchema, "effect").Str(),
		Cause:   row.Get(edgesSchema, "cause").Str(),
		Role:    row.Get(edgesSchema, "role").Str(),
		Account: row.Get(edgesSchema, "account").Str(),
	}
	if v := row.Get(edgesSchema, "time"); !v.IsNull() {
		e.Time = v.Time()
	}
	return e
}

// Graph reconstructs the OPM graph of a run; a running run's is empty. The
// run row is read first: a terminal status proves the one commit that wrote
// the graph has landed, and nothing rewrites a finished run's rows, so the
// edge and node reads that follow see the same graph whichever order they
// run in. Each is one primary-key range scan over the run's rows.
func (r *Repository) Graph(runID string) (*opm.Graph, error) {
	g := opm.NewGraph()
	if written, err := r.graphWritten(runID); err != nil {
		return nil, err
	} else if !written {
		return g, nil
	}
	var edges []opm.Edge
	r.scanRun(edgesSchema, runID, runID+"/", func(row storage.Row) bool {
		edges = append(edges, rowToEdge(row))
		return true
	})
	var err error
	r.scanRun(nodesSchema, runID, runID+"/", func(row storage.Row) bool {
		var n *opm.Node
		if n, err = rowToNode(row); err == nil {
			err = g.AddNode(*n)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// QualityOfProcess returns the quality annotations (dimension -> value)
// recorded on the named processor of a run. It reads the single node row
// directly instead of reconstructing the run's whole graph.
func (r *Repository) QualityOfProcess(runID, processor string) (map[string]string, error) {
	nid := "p:" + runID + "/" + processor
	row, err := r.db.Table(nodesTable).Get(storage.S(nodeKey(runID, nid)))
	if err != nil {
		if !errors.Is(err, storage.ErrNotFound) {
			return nil, err
		}
		// Distinguish "no such run" from "run has no such processor".
		if _, rerr := r.Run(runID); rerr != nil {
			return nil, rerr
		}
		return nil, fmt.Errorf("provenance: run %q has no processor %q", runID, processor)
	}
	ann, err := decodeAnnotations(row.Get(nodesSchema, "annotations").Raw())
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for k, v := range ann {
		if len(k) > len(QualityAnnotationPrefix) && k[:len(QualityAnnotationPrefix)] == QualityAnnotationPrefix {
			out[k[len(QualityAnnotationPrefix):]] = v
		}
	}
	return out, nil
}

// RunsUsingArtifact returns the run IDs whose graphs contain a used edge on
// the given artifact ID — "which analyses consumed this dataset?", the
// cross-run reuse question long-term preservation exists to answer. The
// lookup is an index probe on edge cause, not a table scan.
func (r *Repository) RunsUsingArtifact(artifactID string) ([]string, error) {
	rows, err := r.db.Table(edgesTable).Lookup("cause", storage.S(artifactID))
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, row := range rows {
		if opm.EdgeKind(row.Get(edgesSchema, "kind").Int()) == opm.Used {
			set[row.Get(edgesSchema, "run_id").Str()] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// annEncoder builds annotation blobs: the key/value pairs in sorted key
// order, length-prefixed through the row codec (the storage wire format). It
// reuses its sort and row scratch, and Encode carves each blob out of an
// internal arena that stays valid until the next Reset, so encoding a
// graph's nodes allocates nothing once warm.
type annEncoder struct {
	keys []string
	row  storage.Row
	buf  []byte
}

func (e *annEncoder) Reset() { e.buf = e.buf[:0] }

func (e *annEncoder) Encode(m map[string]string) []byte {
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	sort.Strings(e.keys)
	e.row = e.row[:0]
	for _, k := range e.keys {
		e.row = append(e.row, storage.S(k), storage.S(m[k]))
	}
	start := len(e.buf)
	e.buf = storage.EncodeRow(e.buf, e.row)
	return e.buf[start:len(e.buf):len(e.buf)]
}

// decodeAnnotations reads a node's annotations: none for a NULL cell,
// otherwise exactly what annEncoder writes.
func decodeAnnotations(blob []byte) (map[string]string, error) {
	if len(blob) == 0 {
		return map[string]string{}, nil
	}
	m, err := storage.DecodeStringMap(blob)
	if err != nil {
		return nil, fmt.Errorf("provenance: decode annotations: %w", err)
	}
	return m, nil
}
