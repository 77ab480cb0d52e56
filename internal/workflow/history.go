package workflow

import "time"

// This file defines the event-sourced core's source of truth: every run is an
// append-only history of typed events, and everything else the system derives
// from a run — OPM provenance deltas, telemetry spans, crash recovery — is a
// deterministic projection of that stream. The engine's decider (decider.go)
// makes every event, one input at a time, so a run's history is totally
// ordered and its Seq numbers are dense from 0.
//
// Resume is replay: fold the persisted history prefix back into the decider,
// re-dispatch only the activity tasks the prefix does not record as finished,
// and append new events after the prefix. No checkpoint side-channel exists.

// instant is wall-clock time as the decider sees it: handed in, never read.
type instant = time.Time

// HistoryEventType classifies one history event. The values are the wire
// format (JSON payloads store them verbatim), so they must never change.
type HistoryEventType string

// History event types, appended in causal order per run.
const (
	// HistoryRunStarted opens the run: workflow identity, inputs, annotations.
	// It is the one event that names the workflow; later events carry only
	// the run ID.
	HistoryRunStarted HistoryEventType = "run-started"
	// HistoryActivityScheduled records that a processor's inputs were bound
	// and its tasks enqueued. Inputs and Annotations are those of the
	// processor; Elements is the planned invocation count (-1 for a single
	// non-iterating call).
	HistoryActivityScheduled HistoryEventType = "activity-scheduled"
	// HistoryActivityStarted records the first worker pickup of an activity.
	HistoryActivityStarted HistoryEventType = "activity-started"
	// HistoryIterationElement records the durable completion of ONE implicit
	// iteration element: Element is the index, Inputs/Outputs the per-element
	// call data. Resume re-enqueues only elements with no such event (nor an
	// iteration-batch naming them). A single-form invocation and a retry
	// record one.
	HistoryIterationElement HistoryEventType = "iteration-element"
	// HistoryIterationBatch records the elements one batch-form invocation
	// completed, together: Batch holds each one's index and call data, as an
	// iteration-element would. It is atomic for resume — a history cut before
	// it re-executes the whole lease.
	HistoryIterationBatch HistoryEventType = "iteration-batch"
	// HistoryActivityCompleted closes an activity successfully: the
	// invocation count and the collected Outputs — absent when they are
	// exactly what the activity's iteration-element events already hold,
	// which HistoryFold then rebuilds them from.
	HistoryActivityCompleted HistoryEventType = "activity-completed"
	// HistoryActivityFailed closes an activity with an error.
	HistoryActivityFailed HistoryEventType = "activity-failed"
	// HistorySubWorkflow marks a scheduled activity as a nested dataflow
	// (its service name starts with NestedPrefix).
	HistorySubWorkflow HistoryEventType = "sub-workflow"
	// HistoryRetryBackoff records one retry pause of a service invocation.
	HistoryRetryBackoff HistoryEventType = "retry-backoff"
	// HistoryRunFinished closes the run; Status is "completed" or "failed".
	// It is always the last event of a history.
	HistoryRunFinished HistoryEventType = "run-finished"
)

// HistoryEvent is one immutable entry of a run's history stream. Unused
// fields are zero; the JSON encoding (via the Data codec) is the persisted
// payload format in the provenance repository's history table.
type HistoryEvent struct {
	Seq  int              `json:"seq"`
	Type HistoryEventType `json:"type"`
	Time time.Time        `json:"time"`

	RunID        string `json:"run_id"`
	WorkflowID   string `json:"workflow_id,omitempty"`
	WorkflowName string `json:"workflow_name,omitempty"`

	// Activity is the processor name ("" for run-level events); Service its
	// registry key; Worker the ID of the worker that produced the event.
	Activity string `json:"activity,omitempty"`
	Service  string `json:"service,omitempty"`
	Worker   string `json:"worker,omitempty"`

	// Element is the iteration index (-1 when not element-scoped; an
	// iteration-batch carries its indices in Batch), Elements the planned
	// invocation count of a scheduled activity (-1 for a single call),
	// Iterations the invocation count of a finished activity, and Attempt
	// the retry ordinal of a retry-backoff event.
	Element    int `json:"element,omitempty"`
	Elements   int `json:"elements,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	Attempt    int `json:"attempt,omitempty"`

	Inputs  map[string]Data `json:"inputs,omitempty"`
	Outputs map[string]Data `json:"outputs,omitempty"`
	// Batch is the completed elements of an iteration-batch event.
	Batch       []ElementTrace `json:"batch,omitempty"`
	Annotations []Annotation   `json:"annotations,omitempty"`

	Duration time.Duration `json:"duration,omitempty"`
	// Status is "completed" or "failed" on run-finished events.
	Status string `json:"status,omitempty"`
	Err    string `json:"error,omitempty"`
}

// HistoryListener observes a run's history stream. OnHistoryEvent is called
// synchronously from the engine driver's loop goroutine, in Seq order, so
// implementations observe a totally ordered stream and need no locking
// against the engine (they must still be safe against their own readers).
type HistoryListener interface {
	OnHistoryEvent(HistoryEvent)
}

// HistoryPrefixer is an optional HistoryListener extension: before a resumed
// run appends its first new event, the engine hands the replayed prefix to
// every listener implementing it, so projections can fold the prefix into
// their state without re-emitting what is already persisted.
type HistoryPrefixer interface {
	OnHistoryPrefix([]HistoryEvent)
}

// ElementTrace records one element of an implicit iteration: the per-element
// inputs and outputs of a single service invocation. It enables fine-grained
// provenance — "which input name produced this particular result" — instead
// of only list-to-list derivation.
type ElementTrace struct {
	Index   int             `json:"element"`
	Inputs  map[string]Data `json:"inputs,omitempty"`
	Outputs map[string]Data `json:"outputs,omitempty"`
}

// ActivityFold is what a history says about one activity so far: what resume
// re-schedules it from and what provenance closes its process node with.
// Only activity-completed closes an activity. activity-failed clears Done and
// keeps the rest, because the engine re-executes a failed activity under the
// recorded binding — appending no second activity-scheduled — and reuses the
// elements that finished.
type ActivityFold struct {
	Scheduled   bool // activity-scheduled seen; it recorded the next four
	Service     string
	Annotations []Annotation
	Inputs      map[string]Data
	Planned     int            // element count of an iteration, -1 for a single call
	Elements    []ElementTrace // finished iteration elements, in arrival order
	Done        bool           // activity-completed seen; Outputs are its own or rebuilt
	Outputs     map[string]Data
}

// elementOutputs rebuilds an iteration's collected outputs from its element
// traces: per port, the elements' values in index order. It answers only for
// a complete iteration — each of the Planned indices exactly once, every
// element with the same ports — and nil otherwise, because then the elements
// do not determine the collected lists.
func (a *ActivityFold) elementOutputs() map[string]Data {
	n := a.Planned
	if n < 1 || len(a.Elements) != n {
		return nil
	}
	ports := a.Elements[0].Outputs
	lists := make(map[string][]Data, len(ports))
	for port := range ports {
		lists[port] = make([]Data, n)
	}
	seen := make([]bool, n)
	for _, el := range a.Elements {
		if el.Index < 0 || el.Index >= n || seen[el.Index] || len(el.Outputs) != len(ports) {
			return nil
		}
		seen[el.Index] = true
		for port, v := range el.Outputs {
			list, ok := lists[port]
			if !ok {
				return nil
			}
			list[el.Index] = v
		}
	}
	return collectOutputs(lists)
}

// HistoryFold is the incremental fold of one run's history: the single place
// that decides what a prefix means, for the engine, which resumes from it,
// and for projections that need more than the event in hand (the provenance
// Collector). The zero value is the empty history; not safe for concurrent use.
type HistoryFold struct {
	Started  bool          // run-started seen
	Finished *HistoryEvent // the run-finished event; nil while the run is open
	acts     map[string]*ActivityFold
}

// Activity returns the named activity's fold, nil when no event folded it.
func (f *HistoryFold) Activity(name string) *ActivityFold { return f.acts[name] }

func (f *HistoryFold) act(name string) *ActivityFold {
	a := f.acts[name]
	if a == nil {
		if f.acts == nil {
			f.acts = make(map[string]*ActivityFold)
		}
		a = &ActivityFold{}
		f.acts[name] = a
	}
	return a
}

// Apply folds the next event and returns the activity it updated: nil for
// run-level events and for bookkeeping (activity-started, sub-workflow,
// retry-backoff), which no projection reads; the decider folds those itself.
func (f *HistoryFold) Apply(ev HistoryEvent) *ActivityFold {
	var a *ActivityFold
	switch ev.Type {
	case HistoryRunStarted:
		f.Started = true
	case HistoryActivityScheduled:
		a = f.act(ev.Activity)
		a.Scheduled, a.Service, a.Annotations, a.Inputs, a.Planned = true, ev.Service, ev.Annotations, ev.Inputs, ev.Elements
	case HistoryIterationElement:
		a = f.act(ev.Activity)
		a.Elements = append(a.Elements, ElementTrace{Index: ev.Element, Inputs: ev.Inputs, Outputs: ev.Outputs})
	case HistoryIterationBatch:
		// Appending copies the traces: the fold's slice never aliases the
		// event's, which a reader of the fold may sort while the event is
		// still being encoded.
		a = f.act(ev.Activity)
		a.Elements = append(a.Elements, ev.Batch...)
	case HistoryActivityCompleted:
		a = f.act(ev.Activity)
		a.Done, a.Outputs = true, ev.Outputs
		if len(ev.Outputs) == 0 {
			// An empty map is stored as none, so both read as omitted.
			a.Outputs = a.elementOutputs()
		}
	case HistoryActivityFailed:
		a = f.act(ev.Activity)
		a.Done = false
	case HistoryRunFinished:
		fin := ev // copied here so only this case pays for the escape
		f.Finished = &fin
	}
	return a
}
