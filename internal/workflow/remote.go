package workflow

import (
	"context"
	"fmt"
	"time"
)

// remoteLeaseTTL is how long a task handed to a remote worker stays leased
// before the queue redelivers it (DESIGN.md "Cross-process execution &
// failover" gives the reason for the value).
const remoteLeaseTTL = 30 * time.Second

// RemoteTask is one unit of work handed to an out-of-process worker: the
// queue task, the processor definition it belongs to (service name and
// config — everything the remote side needs to invoke its own registered
// implementation), and the fully-bound element inputs.
type RemoteTask struct {
	Task      Task            `json:"task"`
	Processor *Processor      `json:"processor"`
	Inputs    map[string]Data `json:"inputs"`
}

// RunHandle is the orchestrator-side attachment point for remote workers: a
// live run's queue plus the report channel into its decider, handed to the
// engine's Gateway per run and valid until RunFinished. Remote workers are
// full peers of the in-process pool, so graph byte-identity holds wherever an
// element executed.
type RunHandle struct {
	r *eventRun
}

// RunID returns the run this handle serves.
func (h *RunHandle) RunID() string { return h.r.d.runID }

// Dequeue leases the next task for a remote worker, blocking until one is
// ready, ctx is done, or the queue closes (ErrQueueClosed: the run is
// draining — the worker should detach). The lease expires after
// remoteLeaseTTL: a worker that vanishes without reporting costs the run
// that long, and then the task is redelivered. Tasks whose activity was
// already cancelled are drained inline, exactly as the in-process worker
// loop drains them, and never reach the remote side.
func (h *RunHandle) Dequeue(ctx context.Context, worker string) (RemoteTask, error) {
	for {
		t, err := h.r.q.dequeue(ctx, h.r.e.remoteLease)
		if err != nil {
			return RemoteTask{}, err
		}
		h.r.e.Stats.TaskStarted(worker)
		a := h.r.activity(t.Activity)
		if err := a.ctx.Err(); err != nil {
			h.r.drain(worker, t, err)
			continue
		}
		callIn := a.inputs
		if t.Element >= 0 {
			callIn = elementInputs(a.p, a.inputs, t.Element)
		}
		h.r.e.metrics.dispatched(t)
		h.r.e.metrics.queueWait.Observe(time.Since(t.EnqueuedAt))
		return RemoteTask{Task: t, Processor: a.p, Inputs: callIn}, nil
	}
}

// Complete acks the task and reports the remote attempt's outcome to the
// decider, which checks the declared outputs and decides on a retry exactly
// as for the in-process pool.
func (h *RunHandle) Complete(t Task, worker string, callIn, out map[string]Data, taskErr error) {
	h.r.q.Ack(t.ID)
	h.r.e.Stats.TaskDone(worker)
	h.r.report(report{task: t, worker: worker, inputs: callIn, outputs: out, err: taskErr})
}

// Fail nacks the task back to the queue tail (a remote worker shutting down
// mid-task, the cross-process analogue of a killed pool worker).
func (h *RunHandle) Fail(t Task, worker string) {
	h.r.q.Nack(t.ID)
	h.r.e.Stats.TaskRequeued(worker)
}

// InvokeRemote makes one attempt at a RemoteTask against a local registry —
// the worker side of the remote protocol, shared by cluster.Worker and
// tests. Retries are the orchestrator's: a failed attempt is reported, and
// the retry comes back as a task of its own.
func InvokeRemote(ctx context.Context, reg *Registry, rt RemoteTask) (map[string]Data, error) {
	p := rt.Processor
	fn, ok := reg.Lookup(p.Service)
	if !ok {
		return nil, fmt.Errorf("workflow: remote worker has no service %q", p.Service)
	}
	return fn(ctx, Call{Inputs: rt.Inputs, Config: p.Config})
}
