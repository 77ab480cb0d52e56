package workflow

import (
	"sort"
	"time"
)

// This file defines the event-sourced core's source of truth: every run is an
// append-only history of typed events, and everything else the system derives
// from a run — OPM provenance deltas, telemetry spans, crash recovery — is a
// deterministic projection of that stream. The engine (eventcore.go) appends
// events from a single orchestrator goroutine, so a run's history is totally
// ordered and its Seq numbers are dense from 0.
//
// Resume is replay: fold the persisted history prefix back into engine state,
// re-enqueue only the activity tasks the prefix does not record as finished,
// and append new events after the prefix. No checkpoint side-channel exists.

// HistoryEventType classifies one history event. The values are the wire
// format (JSON payloads store them verbatim), so they must never change.
type HistoryEventType string

// History event types, appended in causal order per run.
const (
	// HistoryRunStarted opens the run: workflow identity, inputs, annotations.
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
	// call data. Resume re-enqueues only elements with no such event.
	HistoryIterationElement HistoryEventType = "iteration-element"
	// HistoryActivityCompleted closes an activity successfully: collected
	// Outputs and the invocation count.
	HistoryActivityCompleted HistoryEventType = "activity-completed"
	// HistoryActivityFailed closes an activity with an error.
	HistoryActivityFailed HistoryEventType = "activity-failed"
	// HistorySubWorkflow marks a scheduled activity as a nested dataflow
	// (its service resolves through RegisterNested).
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

	// Element is the iteration index (-1 when not element-scoped), Elements
	// the planned invocation count of a scheduled activity (-1 for a single
	// call), Iterations the invocation count of a finished activity, and
	// Attempt the retry ordinal of a retry-backoff event.
	Element    int `json:"element,omitempty"`
	Elements   int `json:"elements,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	Attempt    int `json:"attempt,omitempty"`

	Inputs      map[string]Data `json:"inputs,omitempty"`
	Outputs     map[string]Data `json:"outputs,omitempty"`
	Annotations []Annotation    `json:"annotations,omitempty"`

	Duration time.Duration `json:"duration,omitempty"`
	// Status is "completed" or "failed" on run-finished events.
	Status string `json:"status,omitempty"`
	Err    string `json:"error,omitempty"`
}

// HistoryListener observes a run's history stream. OnHistoryEvent is called
// synchronously from the engine's orchestrator goroutine, in Seq order, so
// implementations observe a totally ordered stream and need no locking
// against the engine (they must still be safe against their own readers).
type HistoryListener interface {
	OnHistoryEvent(HistoryEvent)
}

// HistoryListenerFunc adapts a function to HistoryListener.
type HistoryListenerFunc func(HistoryEvent)

// OnHistoryEvent implements HistoryListener.
func (f HistoryListenerFunc) OnHistoryEvent(ev HistoryEvent) { f(ev) }

// HistoryPrefixer is an optional HistoryListener extension: before a resumed
// run appends its first new event, the engine hands the replayed prefix to
// every listener implementing it, so projections can fold the prefix into
// their state without re-emitting what is already persisted.
type HistoryPrefixer interface {
	OnHistoryPrefix([]HistoryEvent)
}

// Projector folds a history stream into the execution Events the
// Provenance Manager consumes. It is the deterministic bridge between the
// event-sourced core and every downstream consumer of workflow.Event: the
// same history prefix always projects to the same event sequence, which is
// what makes resume-as-replay byte-identical.
//
// A Projector is stateful (scheduled inputs and accumulated iteration
// elements buffer between events) and not safe for concurrent use.
type Projector struct {
	acts map[string]*projActivity
}

type projActivity struct {
	scheduled HistoryEvent
	elements  []ElementTrace
}

// Apply folds one history event. When the event projects to an
// execution Event, it returns (event, true); bookkeeping events
// (activity-started, iteration-element, sub-workflow, retry-backoff) fold
// into state and return (Event{}, false).
func (p *Projector) Apply(ev HistoryEvent) (Event, bool) {
	if p.acts == nil {
		p.acts = make(map[string]*projActivity)
	}
	switch ev.Type {
	case HistoryRunStarted:
		return Event{
			Type: EventWorkflowStarted, Time: ev.Time, RunID: ev.RunID,
			WorkflowID: ev.WorkflowID, WorkflowName: ev.WorkflowName,
			Annotations: ev.Annotations, Inputs: ev.Inputs,
		}, true

	case HistoryActivityScheduled:
		p.acts[ev.Activity] = &projActivity{scheduled: ev}
		return Event{
			Type: EventProcessorStarted, Time: ev.Time, RunID: ev.RunID,
			WorkflowID: ev.WorkflowID, WorkflowName: ev.WorkflowName,
			Processor: ev.Activity, Service: ev.Service,
			Annotations: ev.Annotations, Inputs: ev.Inputs,
		}, true

	case HistoryIterationElement:
		if a := p.acts[ev.Activity]; a != nil {
			a.elements = append(a.elements, ElementTrace{
				Index: ev.Element, Inputs: ev.Inputs, Outputs: ev.Outputs,
			})
		}
		return Event{}, false

	case HistoryActivityCompleted, HistoryActivityFailed:
		a := p.acts[ev.Activity]
		if a == nil {
			a = &projActivity{}
		}
		out := Event{
			Type: EventProcessorCompleted, Time: ev.Time, RunID: ev.RunID,
			WorkflowID: ev.WorkflowID, WorkflowName: ev.WorkflowName,
			Processor: ev.Activity, Service: a.scheduled.Service,
			Annotations: a.scheduled.Annotations, Inputs: a.scheduled.Inputs,
			Outputs: ev.Outputs, Iterations: ev.Iterations, Duration: ev.Duration,
		}
		if len(a.elements) > 0 {
			sort.Slice(a.elements, func(i, j int) bool { return a.elements[i].Index < a.elements[j].Index })
			out.Elements = a.elements
		}
		if ev.Type == HistoryActivityFailed {
			out.Type = EventProcessorFailed
			out.Err = ev.Err
			out.Outputs = nil
			out.Elements = nil
		}
		delete(p.acts, ev.Activity)
		return out, true

	case HistoryRunFinished:
		if ev.Status == "failed" {
			return Event{
				Type: EventWorkflowFailed, Time: ev.Time, RunID: ev.RunID,
				WorkflowID: ev.WorkflowID, WorkflowName: ev.WorkflowName, Err: ev.Err,
			}, true
		}
		return Event{
			Type: EventWorkflowCompleted, Time: ev.Time, RunID: ev.RunID,
			WorkflowID: ev.WorkflowID, WorkflowName: ev.WorkflowName, Outputs: ev.Outputs,
		}, true
	}
	// activity-started, sub-workflow, retry-backoff: execution bookkeeping
	// with no Event projection.
	return Event{}, false
}
