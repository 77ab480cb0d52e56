package provenance

import (
	"repro/internal/opm"
	"repro/internal/workflow"
)

// DeltaKind classifies one entry of a run's persistence stream.
type DeltaKind uint8

// Delta kinds. A run's stream is RunStarted → History… → RunFinished: while
// the run executes only its history is persisted, and its graph is written
// once, by the delta that ends it.
const (
	// DeltaRunStarted opens a run: Info carries the initial RunInfo (Status ==
	// RunRunning) and History the run-started event, so a run row is never
	// stored without the first event of its history.
	DeltaRunStarted DeltaKind = iota
	// DeltaHistory carries one engine history event.
	DeltaHistory
	// DeltaRunFinished ends a run: Info carries the terminal RunInfo
	// (completed, failed or abandoned), History the run-finished event (nil
	// for an abandoned run, whose history stops where it was cut) and Graph
	// the run's final OPM graph, the fold of its history. It is the run's
	// last delta, and the graph belongs to the sink from then on: nothing
	// mutates it again.
	DeltaRunFinished
)

// Delta is one entry of a run's persistence stream.
type Delta struct {
	Kind DeltaKind
	// Info is set for DeltaRunStarted and DeltaRunFinished.
	Info RunInfo
	// History is the event the delta persists.
	History *workflow.HistoryEvent
	// Graph is set for DeltaRunFinished.
	Graph *opm.Graph
}

// Sink consumes the delta stream of one run. Emit is called in causal order
// under the Collector's lock, so implementations need no internal ordering;
// they must not call back into the Collector. The Collector ignores an Emit
// error and keeps delivering, so a slow or failed sink never aborts the run
// it observes: a sink reports its own failure (BatchWriter.Close).
type Sink interface {
	Emit(Delta) error
}
