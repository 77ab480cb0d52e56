package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/workflow"
)

// Worker is the out-of-process half of the gateway protocol: it long-polls
// /cluster/v1/dequeue, makes one attempt at each task against its own service
// registry (workflow.InvokeRemote) and reports the result back; the
// orchestrator checks the outputs and re-dispatches a retry as a new task.
// Run it from a separate process (cmd/worker) pointed at an orchestrator's
// gateway; the orchestrator folds its reports into history through the same
// channel as the local pool, so where an element executed is invisible in
// the record.
type Worker struct {
	// Gateway is the orchestrator's base URL (e.g. "http://host:8080").
	Gateway string
	// Name identifies this worker; the registry tracks it as "r-<name>".
	Name string
	// Registry holds the worker's own service implementations.
	Registry *workflow.Registry
	// Client is the HTTP client (default: one with generous timeouts for
	// long polls).
	Client *http.Client
	// Poll is the long-poll window per dequeue (default 5s).
	Poll time.Duration

	// Tasks counts completed invocations (successes and failures reported).
	Tasks atomic.Int64
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 60 * time.Second}
}

func (w *Worker) post(ctx context.Context, path string, in any, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Gateway+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, b)
	}
	if out != nil {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// Run pulls and executes tasks until ctx is cancelled. Transient gateway
// errors (orchestrator restarting, network blips) are absorbed with a short
// backoff — the worker is stateless, so reattaching is just the next poll.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 5 * time.Second
	}
	if _, err := w.post(ctx, "/cluster/v1/register", pullRequest{Worker: w.Name}, nil); err != nil && ctx.Err() == nil {
		return fmt.Errorf("cluster: registering with gateway: %w", err)
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		var task pullResponse
		status, err := w.post(ctx, "/cluster/v1/dequeue", pullRequest{Worker: w.Name, WaitMS: poll.Milliseconds()}, &task)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		if status == http.StatusNoContent {
			continue
		}
		w.execute(ctx, task)
	}
}

// execute runs one task and reports it. A ctx cancellation mid-task fails
// the task back to the queue (the cross-process analogue of a killed pool
// worker) so a live worker can pick it up.
func (w *Worker) execute(ctx context.Context, task pullResponse) {
	rt := workflow.RemoteTask{Task: task.Task, Processor: task.Processor, Inputs: task.Inputs}
	out, err := workflow.InvokeRemote(ctx, w.Registry, rt)
	if err != nil && ctx.Err() != nil {
		// Dying mid-task: hand it back instead of reporting a cancellation
		// the orchestrator would treat as the task's real outcome.
		rctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _ = w.post(rctx, "/cluster/v1/fail", reportRequest{Worker: w.Name, RunID: task.RunID, Task: task.Task}, nil)
		return
	}
	report := reportRequest{
		Worker: w.Name, RunID: task.RunID, Task: task.Task,
		Inputs: rt.Inputs, Outputs: out,
	}
	if err != nil {
		report.Error = err.Error()
	}
	_, _ = w.post(ctx, "/cluster/v1/complete", report, nil)
	w.Tasks.Add(1)
}
