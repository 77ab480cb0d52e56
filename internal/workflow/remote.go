package workflow

import (
	"context"
	"fmt"
	"time"
)

// RemoteTask is one unit of work handed to an out-of-process worker: the
// queue task, the processor definition it belongs to (service name, config,
// retry policy — everything the remote side needs to invoke its own
// registered implementation), and the fully-bound element inputs.
type RemoteTask struct {
	Task      Task            `json:"task"`
	Processor *Processor      `json:"processor"`
	Inputs    map[string]Data `json:"inputs"`
}

// RunHandle is the orchestrator-side attachment point for remote workers: a
// live run's queue plus the report channel into the orchestration loop. The
// engine hands one to its Gateway per run; it is valid until RunFinished.
//
// Remote workers are full peers of the in-process pool: they pull from the
// same queue (FIFO, leases, redelivery) and their reports fold into
// history through the same orchestrator goroutine, so graph byte-identity
// holds regardless of where an element executed.
type RunHandle struct {
	r *eventRun
}

// RunID returns the run this handle serves.
func (h *RunHandle) RunID() string { return h.r.runID }

// Dequeue leases the next task for a remote worker, blocking until one is
// ready, ctx is done, or the queue closes (ErrQueueClosed: the run is
// draining — the worker should detach). Tasks whose activity was already
// cancelled are drained inline, exactly as the in-process worker loop drains
// them, and never reach the remote side.
func (h *RunHandle) Dequeue(ctx context.Context, worker string) (RemoteTask, error) {
	for {
		t, err := h.r.q.Dequeue(ctx)
		if err != nil {
			return RemoteTask{}, err
		}
		h.r.e.Stats.TaskStarted(worker)
		a := h.r.activity(t.Activity)
		if err := a.ctx.Err(); err != nil {
			h.r.q.Ack(t.ID)
			h.r.e.Stats.TaskDone(worker)
			h.r.report(workerMsg{task: t, worker: worker, err: err})
			continue
		}
		callIn := a.inputs
		if t.Element >= 0 {
			callIn = elementInputs(a.p, a.inputs, t.Element)
			h.r.e.metrics.elementsDispatched.Add(1)
		}
		h.r.e.metrics.invocations.Add(1)
		h.r.e.metrics.queueWait.Observe(time.Since(t.EnqueuedAt))
		return RemoteTask{Task: t, Processor: a.p, Inputs: callIn}, nil
	}
}

// Complete acks the task and folds the remote result into the run. A nil
// taskErr still runs the declared-output check the in-process worker applies,
// so a misbehaving remote service fails the activity identically.
func (h *RunHandle) Complete(t Task, worker string, callIn, out map[string]Data, taskErr error) {
	if a := h.r.activity(t.Activity); a != nil && taskErr == nil {
		taskErr = checkOutputs(a.p, out)
	}
	h.r.q.Ack(t.ID)
	h.r.e.Stats.TaskDone(worker)
	h.r.report(workerMsg{task: t, worker: worker, callIn: callIn, out: out, err: taskErr})
}

// Fail nacks the task back to the queue tail (a remote worker shutting down
// mid-task, the cross-process analogue of a killed pool worker).
func (h *RunHandle) Fail(t Task, worker string) {
	h.r.q.Nack(t.ID)
	h.r.e.Stats.TaskRequeued(worker)
}

// RetryNotify appends a retry-backoff event for a remote attempt, mirroring
// the in-process notify callback.
func (h *RunHandle) RetryNotify(t Task, worker string, attempt int) {
	h.r.report(workerMsg{retry: true, task: t, worker: worker, attempt: attempt})
}

// InvokeRemote executes one RemoteTask against a local registry — the worker
// side of the remote protocol, shared by cluster.Worker and tests. It runs
// the same retry/backoff/output-check pipeline as the in-process pool.
func InvokeRemote(ctx context.Context, reg *Registry, rt RemoteTask, notify func(attempt int)) (map[string]Data, error) {
	p := rt.Processor
	fn, ok := reg.Lookup(p.Service)
	if !ok {
		return nil, fmt.Errorf("workflow: remote worker has no service %q", p.Service)
	}
	out, err := retryFrom(ctx, fn, p, Call{Inputs: rt.Inputs, Config: p.Config}, 0, nil, notify)
	if err == nil {
		err = checkOutputs(p, out)
	}
	return out, err
}
