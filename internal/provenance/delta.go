package provenance

import (
	"fmt"
	"sync"

	"repro/internal/opm"
	"repro/internal/workflow"
)

// DeltaKind classifies one incremental provenance operation.
type DeltaKind uint8

// Delta kinds, emitted in causal order per run.
const (
	// DeltaRunStarted opens a run; Info carries the initial RunInfo
	// (Status == RunRunning).
	DeltaRunStarted DeltaKind = iota
	// DeltaAddNode adds one OPM node (annotations arrive separately).
	DeltaAddNode
	// DeltaAddEdge adds one OPM edge. Edges are pre-deduplicated: a sink
	// never sees the same (kind, endpoints, role, account) twice per run.
	DeltaAddEdge
	// DeltaAnnotate sets one key=value annotation on an existing node;
	// later values for the same key overwrite earlier ones.
	DeltaAnnotate
	// DeltaRunFinished closes a run; Info carries the terminal RunInfo
	// (Status RunCompleted or RunFailed). It is the last delta of a run.
	DeltaRunFinished
	// DeltaHistory carries one engine history event. It is emitted AFTER
	// the graph deltas the event implies, so a persisted history event
	// guarantees (by the stream's prefix property) that all of the
	// provenance it implies is persisted too — the invariant resume-as-
	// replay relies on. The sole exception is the terminal run-finished
	// event, which goes out BEFORE its graph deltas so DeltaRunFinished
	// stays the stream's last delta (see Collector.OnHistoryEvent). History
	// events are not part of the OPM graph.
	DeltaHistory
)

// String names the delta kind.
func (k DeltaKind) String() string {
	switch k {
	case DeltaRunStarted:
		return "run-started"
	case DeltaAddNode:
		return "add-node"
	case DeltaAddEdge:
		return "add-edge"
	case DeltaAnnotate:
		return "annotate"
	case DeltaRunFinished:
		return "run-finished"
	case DeltaHistory:
		return "history"
	default:
		return fmt.Sprintf("delta(%d)", uint8(k))
	}
}

// Delta is one incremental graph operation of a captured run. Replaying a
// run's delta stream in order reconstructs exactly the OPM graph (and
// RunInfo) the Collector accumulated — the invariant the streaming
// persistence path is built on.
type Delta struct {
	Kind DeltaKind
	// Info is set for DeltaRunStarted and DeltaRunFinished.
	Info RunInfo
	// Node is set for DeltaAddNode. Its Annotations map is always nil:
	// annotations flow as separate DeltaAnnotate ops.
	Node opm.Node
	// Edge is set for DeltaAddEdge.
	Edge opm.Edge
	// NodeID, Key, Value are set for DeltaAnnotate.
	NodeID string
	Key    string
	Value  string
	// History is set for DeltaHistory.
	History *workflow.HistoryEvent
}

// Sink consumes the delta stream of one run. Emit is called in causal order
// under the Collector's lock, so implementations need no internal ordering;
// they must not call back into the Collector. An Emit error is sticky: the
// Collector records the first one (Collector.SinkErr) and keeps delivering,
// so a slow or failed sink never aborts the run it observes.
type Sink interface {
	Emit(Delta) error
}

// GraphSink materializes the delta stream back into an in-memory OPM graph —
// the reference consumer: byte-compatible with the Collector's own graph and
// the baseline other sinks are tested against.
type GraphSink struct {
	mu   sync.Mutex
	g    *opm.Graph
	info RunInfo
}

// NewGraphSink builds an empty in-memory sink.
func NewGraphSink() *GraphSink { return &GraphSink{g: opm.NewGraph()} }

// Emit implements Sink.
func (s *GraphSink) Emit(d Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch d.Kind {
	case DeltaRunStarted, DeltaRunFinished:
		s.info = d.Info
		return nil
	case DeltaAddNode:
		return s.g.AddNode(d.Node)
	case DeltaAddEdge:
		return s.g.AddEdge(d.Edge)
	case DeltaAnnotate:
		return s.g.Annotate(d.NodeID, d.Key, d.Value)
	case DeltaHistory:
		return nil // execution bookkeeping, not part of the graph
	default:
		return fmt.Errorf("provenance: unknown delta kind %d", d.Kind)
	}
}

// Graph returns a snapshot of the materialized graph.
func (s *GraphSink) Graph() *opm.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.Clone()
}

// Info returns the latest run info seen on the stream.
func (s *GraphSink) Info() RunInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.info
}
