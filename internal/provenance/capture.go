// Package provenance implements the Provenance Manager of the architecture:
// it listens to a run's history stream, builds an OPM graph per run
// (artifacts for every datum, processes for every processor invocation,
// agents for the controlling parties), merges the quality annotations that
// the Workflow Adapter attached to the specification, and persists the
// result in the Data Provenance Repository.
//
// A run's graph is a function of its history, so history is all a run
// persists while it executes: the Collector folds every event into its
// in-memory graph and emits the event, as a Delta, to any attached Sinks. The
// run's end is one delta carrying the terminal event and the final graph, and
// the Repository's BatchWriter sink commits both together. A reader therefore
// sees either no graph or the whole final one.
package provenance

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"
	"unicode/utf8"

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
	// chose not to) resume; the run row's Error records why. Its graph is the
	// fold of the history it stored.
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
// one run's history stream into its OPM graph and streams the history to its
// attached Sinks. It is safe for concurrent use.
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
	sinks []Sink
	// finished is set by run-finished. The graph then belongs to the sinks,
	// and a later event — the terminal one delivered again, or the tail of a
	// corrupt history — changes and emits nothing.
	finished bool
	// fold is what the history so far says about each activity: the binding
	// a closing event is recorded with and the elements finished before it.
	fold workflow.HistoryFold
}

const defaultMaxElements = 4096

// NewCollector builds a collector with the given controlling agent label. A
// resumed run's collector is a new one handed the stored prefix
// (OnHistoryPrefix).
func NewCollector(agent string) *Collector {
	if agent == "" {
		agent = "workflow-engine"
	}
	return &Collector{Agent: agent, graph: opm.NewGraph()}
}

// AddSink attaches a delta consumer. Attach sinks before the run starts;
// sinks attached mid-run miss the deltas already emitted.
func (c *Collector) AddSink(s Sink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sinks = append(c.sinks, s)
}

// Graph returns a snapshot of the accumulated OPM graph. The snapshot is
// deep-copied, so callers can never race with events still mutating the live
// graph (parallel engines deliver processor completions concurrently).
func (c *Collector) Graph() *opm.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.graph.Clone()
}

// artifactID derives a content-addressed artifact ID so the same datum
// flowing through several processors maps to one artifact node.
func artifactID(d workflow.Data) string {
	sum := sha256.Sum256([]byte(d.String()))
	return "a:" + hex.EncodeToString(sum[:8])
}

const maxArtifactValue = 256

// truncate cuts a value longer than maxArtifactValue bytes at the last rune
// boundary within that limit and marks the cut with "…", so a multi-byte
// character is never split into invalid UTF-8.
func truncate(s string) string {
	if len(s) <= maxArtifactValue {
		return s
	}
	cut := maxArtifactValue
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "…"
}

// ensureArtifactLocked registers the artifact for d (if new) and returns its
// ID. Caller holds c.mu.
func (c *Collector) ensureArtifactLocked(label string, d workflow.Data) string {
	id := artifactID(d)
	if _, ok := c.graph.Node(id); !ok {
		// Label records the first port the datum was seen at.
		c.graph.AddNode(opm.Node{ID: id, Kind: opm.KindArtifact, Label: label, Value: truncate(d.String())})
	}
	return id
}

func (c *Collector) processID(processor string) string {
	return "p:" + c.info.RunID + "/" + processor
}

// inKeyOrder calls fn for every entry of m in sorted key order, so one
// history always yields one graph, edges in one order (the order reaches
// storage as edge seq numbers and page order). Port maps are small: the keys
// of all but the widest sort in a stack buffer, so the order costs no
// allocation.
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

// OnHistoryEvent implements workflow.HistoryListener: the event is folded
// into the graph and emitted to the sinks — as DeltaRunStarted for
// run-started, as DeltaRunFinished with the final graph for run-finished,
// and as DeltaHistory otherwise.
func (c *Collector) OnHistoryEvent(ev workflow.HistoryEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.applyLocked(&ev) {
		return
	}
	d := Delta{Kind: DeltaHistory, History: &ev}
	switch ev.Type {
	case workflow.HistoryRunStarted:
		d.Kind, d.Info = DeltaRunStarted, c.info
	case workflow.HistoryRunFinished:
		d.Kind, d.Info, d.Graph = DeltaRunFinished, c.info, c.graph
	}
	for _, s := range c.sinks {
		s.Emit(d) // a sink keeps its own error; see Sink
	}
}

// OnHistoryPrefix implements workflow.HistoryPrefixer: a resumed run's stored
// prefix folds into the graph exactly as a live run's events do, and emits
// nothing — it is stored already.
func (c *Collector) OnHistoryPrefix(prefix []workflow.HistoryEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range prefix {
		c.applyLocked(&prefix[i])
	}
}

// applyLocked folds one event into the graph; false once the run finished.
// Graph mutations a corrupt history makes illegal (an edge naming a missing
// node, a duplicate node) are refused by the graph and skipped. Caller holds
// c.mu.
func (c *Collector) applyLocked(ev *workflow.HistoryEvent) bool {
	if c.finished {
		return false
	}
	act := c.fold.Apply(*ev)
	switch ev.Type {
	case workflow.HistoryRunStarted:
		c.info = RunInfo{
			RunID:        ev.RunID,
			WorkflowID:   ev.WorkflowID,
			WorkflowName: ev.WorkflowName,
			StartedAt:    ev.Time,
			Status:       RunRunning,
		}
		c.graph.AddNode(opm.Node{ID: "ag:" + c.Agent, Kind: opm.KindAgent, Label: c.Agent})
		inKeyOrder(ev.Inputs, func(port string, d workflow.Data) {
			c.ensureArtifactLocked("workflow-input:"+port, d)
		})
	case workflow.HistoryActivityCompleted, workflow.HistoryActivityFailed:
		c.activityClosedLocked(ev, act)
	case workflow.HistoryRunFinished:
		c.finished = true
		c.info.FinishedAt = ev.Time
		if ev.Status == "failed" {
			c.info.Status = RunFailed
			c.info.Error = ev.Err
			break
		}
		// Completion rules: derive artifact-to-artifact and
		// process-to-process dependencies.
		c.info.Status = RunCompleted
		c.graph.InferDerivations()
		c.graph.InferTriggers()
	}
	return true
}

// activityClosedLocked records an activity-completed or activity-failed
// event: the process node (created here, when the outcome is known), what it
// used, and — for a completion — what it generated, element by element. act
// holds the scheduled binding, the elements finished so far, including those
// a failed earlier attempt left behind, and a completion's outputs, which the
// fold rebuilds from the elements when the event omits them.
func (c *Collector) activityClosedLocked(ev *workflow.HistoryEvent, act *workflow.ActivityFold) {
	pid := c.processID(ev.Activity)
	if _, exists := c.graph.Node(pid); !exists {
		c.graph.AddNode(opm.Node{ID: pid, Kind: opm.KindProcess, Label: ev.Activity})
	}
	c.graph.Annotate(pid, "service", act.Service)
	c.graph.Annotate(pid, "iterations", fmt.Sprintf("%d", ev.Iterations))
	c.graph.Annotate(pid, "duration", ev.Duration.String())
	if ev.Err != "" {
		c.graph.Annotate(pid, "error", ev.Err)
	}
	// Quality annotations from the (adapter-instrumented) specification.
	inKeyOrder(workflow.QualityAnnotations(act.Annotations), func(dim, val string) {
		c.graph.Annotate(pid, QualityAnnotationPrefix+dim, val)
	})
	account := ev.RunID
	inKeyOrder(act.Inputs, func(port string, d workflow.Data) {
		aid := c.ensureArtifactLocked(ev.Activity+"."+port, d)
		c.graph.AddEdge(opm.Edge{
			Kind: opm.Used, Effect: pid, Cause: aid,
			Role: port, Account: account, Time: ev.Time,
		})
	})
	outputs, elements := act.Outputs, act.Elements
	if ev.Type == workflow.HistoryActivityFailed {
		// A failed attempt generated nothing; the elements it finished are
		// recorded when the re-execution that reuses them completes.
		outputs, elements = nil, nil
	}
	inKeyOrder(outputs, func(port string, d workflow.Data) {
		aid := c.ensureArtifactLocked(ev.Activity+"."+port, d)
		c.graph.AddEdge(opm.Edge{
			Kind: opm.WasGeneratedBy, Effect: aid, Cause: pid,
			Role: port, Account: account, Time: ev.Time,
		})
	})
	c.graph.AddEdge(opm.Edge{
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
				c.graph.AddEdge(opm.Edge{
					Kind: opm.WasDerivedFrom, Effect: outID, Cause: inID,
					Account: account, Time: ev.Time,
				})
			}
		})
	}
}
