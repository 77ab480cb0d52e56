// Package provenance implements the Provenance Manager of the architecture:
// it listens to a run's history stream, builds an OPM graph per run
// (artifacts for every datum, processes for every processor invocation,
// agents for the controlling parties), merges the quality annotations that
// the Workflow Adapter attached to the specification, and persists the
// result in the Data Provenance Repository.
//
// Capture is incremental: every graph mutation is also emitted as a Delta to
// any attached Sinks, in causal order, while the run executes. The
// Repository's BatchWriter sink streams those deltas into storage behind the
// run (write-behind, group-committed), so provenance is durable shortly
// after it happens instead of in one monolithic store after the run ends.
package provenance

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/opm"
	"repro/internal/workflow"
)

// QualityAnnotationPrefix prefixes quality-dimension annotations merged onto
// OPM process nodes, e.g. "quality.reputation" = "1".
const QualityAnnotationPrefix = "quality."

// RunStatus is the terminal state of a captured run.
type RunStatus string

// Run statuses.
const (
	RunRunning   RunStatus = "running"
	RunCompleted RunStatus = "completed"
	RunFailed    RunStatus = "failed"
	// RunAbandoned marks an unfinished run the startup sweep could not (or
	// chose not to) resume; the run row's Error records why. Its partial
	// provenance stays readable.
	RunAbandoned RunStatus = "abandoned"
)

// RunInfo summarizes one captured workflow execution.
type RunInfo struct {
	RunID        string
	WorkflowID   string
	WorkflowName string
	StartedAt    time.Time
	FinishedAt   time.Time
	Status       RunStatus
	Error        string
}

// Collector is the workflow.HistoryListener (and HistoryPrefixer) that folds
// one run's history stream into its OPM graph and streams every mutation,
// followed by the history event that implied it, to its attached Sinks. It
// is safe for concurrent use.
type Collector struct {
	// Agent identifies who controls the processors of this run (the paper's
	// End User / Process Designer roles). Defaults to "workflow-engine".
	Agent string
	// MaxElements caps per-iteration fine-grained provenance: up to this
	// many elements of an implicit iteration get element-level artifacts and
	// derivation edges (default 4096; 0 uses the default, negative disables).
	MaxElements int

	mu    sync.Mutex
	graph *opm.Graph
	info  RunInfo
	// artifactOf remembers the artifact ID assigned to each distinct datum.
	artifactOf map[string]string
	sinks      []Sink
	sinkErr    error
	// resumed marks a collector preloaded with the crash-consistent prefix
	// of an interrupted run; a run-started event then keeps the original
	// StartedAt instead of restamping it.
	resumed bool
	// fold is what the history so far says about each activity: the binding
	// a closing event is recorded with and the elements finished before it.
	fold workflow.HistoryFold
}

const defaultMaxElements = 4096

// NewCollector builds a collector with the given controlling agent label.
func NewCollector(agent string) *Collector {
	if agent == "" {
		agent = "workflow-engine"
	}
	return &Collector{
		Agent:      agent,
		graph:      opm.NewGraph(),
		artifactOf: make(map[string]string),
	}
}

// NewResumeCollector rebuilds a collector around the crash-consistent prefix
// of an interrupted run: g is the graph recovered from storage (the collector
// takes ownership) and info its persisted RunInfo. Nodes and edges already in
// the prefix are transparently deduplicated, so re-executed processors whose
// provenance was partially persisted re-emit only what is missing, and the
// resumed stream converges on the graph an uninterrupted run would produce.
func NewResumeCollector(agent string, g *opm.Graph, info RunInfo) *Collector {
	c := NewCollector(agent)
	c.graph = g
	c.info = info
	c.resumed = true
	for _, n := range g.NodesOfKind(opm.KindArtifact) {
		c.artifactOf[n.ID] = n.Label
	}
	return c
}

// AddSink attaches a delta consumer. Attach sinks before the run starts;
// sinks attached mid-run miss the deltas already emitted.
func (c *Collector) AddSink(s Sink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sinks = append(c.sinks, s)
}

// SinkErr returns the first error any sink returned from Emit (nil if none).
func (c *Collector) SinkErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sinkErr
}

// emitLocked delivers one delta to every sink. Caller holds c.mu.
func (c *Collector) emitLocked(d Delta) {
	for _, s := range c.sinks {
		if err := s.Emit(d); err != nil && c.sinkErr == nil {
			c.sinkErr = err
		}
	}
}

// Graph returns a snapshot of the accumulated OPM graph. The snapshot is
// deep-copied, so callers can never race with events still mutating the live
// graph (parallel engines deliver processor completions concurrently).
func (c *Collector) Graph() *opm.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.graph.Clone()
}

// Info returns the run summary.
func (c *Collector) Info() RunInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.info
}

// artifactID derives a content-addressed artifact ID so the same datum
// flowing through several processors maps to one artifact node.
func artifactID(d workflow.Data) string {
	sum := sha256.Sum256([]byte(d.String()))
	return "a:" + hex.EncodeToString(sum[:8])
}

const maxArtifactValue = 256

func truncate(s string) string {
	if len(s) > maxArtifactValue {
		return s[:maxArtifactValue] + "…"
	}
	return s
}

// addNodeLocked inserts a node into the graph and emits the matching delta
// when the insert actually happened. Caller holds c.mu.
func (c *Collector) addNodeLocked(n opm.Node) {
	if err := c.graph.AddNode(n); err != nil {
		return
	}
	n.Annotations = nil // annotations flow as DeltaAnnotate ops
	c.emitLocked(Delta{Kind: DeltaAddNode, Node: n})
}

// addEdgeLocked inserts an edge and emits the delta when it was new (the
// graph deduplicates repeats). Caller holds c.mu.
func (c *Collector) addEdgeLocked(e opm.Edge) {
	added, err := c.graph.InsertEdge(e)
	if err != nil || !added {
		return
	}
	c.emitLocked(Delta{Kind: DeltaAddEdge, Edge: e})
}

// annotateLocked sets one node annotation and emits the delta. Caller holds
// c.mu.
func (c *Collector) annotateLocked(id, key, value string) {
	if err := c.graph.Annotate(id, key, value); err != nil {
		return
	}
	c.emitLocked(Delta{Kind: DeltaAnnotate, NodeID: id, Key: key, Value: value})
}

// ensureArtifactLocked registers the artifact for d (if new) and returns its
// ID. Caller holds c.mu.
func (c *Collector) ensureArtifactLocked(label string, d workflow.Data) string {
	id := artifactID(d)
	if _, ok := c.artifactOf[id]; !ok {
		// Label records the first port the datum was seen at.
		c.addNodeLocked(opm.Node{ID: id, Kind: opm.KindArtifact, Label: label, Value: truncate(d.String())})
		c.artifactOf[id] = label
	}
	return id
}

func (c *Collector) processID(processor string) string {
	return "p:" + c.info.RunID + "/" + processor
}

// inKeyOrder calls fn for every entry of m in sorted key order, so one
// history always yields one delta sequence (the order reaches storage as edge
// seq numbers and page order). Port maps are small: the keys of all but the
// widest sort in a stack buffer, so the order costs no allocation.
func inKeyOrder[V any](m map[string]V, fn func(key string, v V)) {
	var buf [8]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fn(k, m[k])
	}
}

// OnHistoryEvent implements workflow.HistoryListener: the run's graph is a
// function of its history alone. For every event the sinks see
//
//	[graph deltas the event implies...] [DeltaHistory]
//
// so any crash-consistent prefix of the stream that holds a history event
// also holds everything the event implies, and resuming from the stored
// history is always safe: the replayed prefix re-derives state already on
// disk, and execution continues from the first missing event.
//
// The terminal event inverts the order, so DeltaRunFinished stays the very
// last delta and a prefix can never show a finalized run record over an
// unfinished history. A cut between the two leaves a finished history with an
// un-finalized run record — the state the engine's finalize path repairs by
// delivering the terminal event again, whose deltas (completion inference,
// the terminal run record) are idempotent.
func (c *Collector) OnHistoryEvent(ev workflow.HistoryEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	act := c.fold.Apply(ev)
	history := Delta{Kind: DeltaHistory, History: &ev}
	switch ev.Type {
	case workflow.HistoryRunStarted:
		c.runStartedLocked(&ev)
	case workflow.HistoryActivityCompleted, workflow.HistoryActivityFailed:
		c.activityClosedLocked(&ev, act)
	case workflow.HistoryRunFinished:
		c.emitLocked(history)
		c.runFinishedLocked(&ev)
		return
	}
	c.emitLocked(history)
}

// OnHistoryPrefix implements workflow.HistoryPrefixer: a resumed run's
// replayed prefix folds WITHOUT emitting anything — the prefix property
// guarantees what it implies is persisted, and the resume collector was
// preloaded with that graph — so that completions after the prefix are
// recorded with the bindings and elements the prefix holds.
func (c *Collector) OnHistoryPrefix(prefix []workflow.HistoryEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range prefix {
		c.fold.Apply(ev)
	}
}

func (c *Collector) runStartedLocked(ev *workflow.HistoryEvent) {
	started := ev.Time
	if c.resumed && !c.info.StartedAt.IsZero() {
		started = c.info.StartedAt // the run began before the crash
	}
	c.info = RunInfo{
		RunID:        ev.RunID,
		WorkflowID:   ev.WorkflowID,
		WorkflowName: ev.WorkflowName,
		StartedAt:    started,
		Status:       RunRunning,
	}
	c.emitLocked(Delta{Kind: DeltaRunStarted, Info: c.info})
	c.addNodeLocked(opm.Node{ID: "ag:" + c.Agent, Kind: opm.KindAgent, Label: c.Agent})
	inKeyOrder(ev.Inputs, func(port string, d workflow.Data) {
		c.ensureArtifactLocked("workflow-input:"+port, d)
	})
}

// activityClosedLocked records an activity-completed or activity-failed
// event: the process node (created here, when the outcome is known), what it
// used, and — for a completion — what it generated, element by element. act
// holds the scheduled binding and the elements finished so far, including
// those a failed earlier attempt left behind.
func (c *Collector) activityClosedLocked(ev *workflow.HistoryEvent, act *workflow.ActivityFold) {
	pid := c.processID(ev.Activity)
	if _, exists := c.graph.Node(pid); !exists {
		c.addNodeLocked(opm.Node{ID: pid, Kind: opm.KindProcess, Label: ev.Activity})
	}
	c.annotateLocked(pid, "service", act.Service)
	c.annotateLocked(pid, "iterations", fmt.Sprintf("%d", ev.Iterations))
	c.annotateLocked(pid, "duration", ev.Duration.String())
	if ev.Err != "" {
		c.annotateLocked(pid, "error", ev.Err)
	}
	// Quality annotations from the (adapter-instrumented) specification.
	inKeyOrder(workflow.QualityAnnotations(act.Annotations), func(dim, val string) {
		c.annotateLocked(pid, QualityAnnotationPrefix+dim, val)
	})
	account := ev.RunID
	inKeyOrder(act.Inputs, func(port string, d workflow.Data) {
		aid := c.ensureArtifactLocked(ev.Activity+"."+port, d)
		c.addEdgeLocked(opm.Edge{
			Kind: opm.Used, Effect: pid, Cause: aid,
			Role: port, Account: account, Time: ev.Time,
		})
	})
	outputs, elements := ev.Outputs, act.Elements
	if ev.Type == workflow.HistoryActivityFailed {
		// A failed attempt generated nothing; the elements it finished are
		// recorded when the re-execution that reuses them completes.
		outputs, elements = nil, nil
	}
	inKeyOrder(outputs, func(port string, d workflow.Data) {
		aid := c.ensureArtifactLocked(ev.Activity+"."+port, d)
		c.addEdgeLocked(opm.Edge{
			Kind: opm.WasGeneratedBy, Effect: aid, Cause: pid,
			Role: port, Account: account, Time: ev.Time,
		})
	})
	c.addEdgeLocked(opm.Edge{
		Kind: opm.WasControlledBy, Effect: pid, Cause: "ag:" + c.Agent,
		Role: "executor", Account: account, Time: ev.Time,
	})
	// Fine-grained provenance: per-element derivation edges so that an
	// individual result traces back to the individual input (e.g. one
	// rename to one queried name), not just list to list.
	max := c.MaxElements
	if max == 0 {
		max = defaultMaxElements
	}
	if max < 0 {
		max = 0 // negative disables element-level provenance
	}
	slices.SortFunc(elements, func(a, b workflow.ElementTrace) int { return cmp.Compare(a.Index, b.Index) })
	for _, el := range elements {
		if el.Index >= max {
			break
		}
		var inIDs []string
		inKeyOrder(el.Inputs, func(port string, d workflow.Data) {
			inIDs = append(inIDs, c.ensureArtifactLocked(ev.Activity+"."+port+"[elem]", d))
		})
		inKeyOrder(el.Outputs, func(port string, d workflow.Data) {
			outID := c.ensureArtifactLocked(ev.Activity+"."+port+"[elem]", d)
			for _, inID := range inIDs {
				if inID == outID {
					continue
				}
				c.addEdgeLocked(opm.Edge{
					Kind: opm.WasDerivedFrom, Effect: outID, Cause: inID,
					Account: account, Time: ev.Time,
				})
			}
		})
	}
}

func (c *Collector) runFinishedLocked(ev *workflow.HistoryEvent) {
	c.info.FinishedAt = ev.Time
	if ev.Status == "failed" {
		c.info.Status = RunFailed
		c.info.Error = ev.Err
	} else {
		c.info.Status = RunCompleted
		// Completion rules: derive artifact-to-artifact and
		// process-to-process dependencies, then stream the inferred edges.
		before := c.graph.EdgeCount()
		c.graph.InferDerivations()
		c.graph.InferTriggers()
		for _, e := range c.graph.EdgesSince(before) {
			c.emitLocked(Delta{Kind: DeltaAddEdge, Edge: e})
		}
	}
	c.emitLocked(Delta{Kind: DeltaRunFinished, Info: c.info})
}

// OutputArtifacts maps each workflow output port of the completed run to its
// artifact ID, given the run result.
func (c *Collector) OutputArtifacts(result *workflow.RunResult) map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]string{}
	for port, d := range result.Outputs {
		out[port] = artifactID(d)
	}
	return out
}
