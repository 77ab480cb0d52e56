package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/workflow"
)

// Server is the orchestrator-side gateway for out-of-process workers: it
// implements workflow.RunGateway, so every engine run of the hosting process
// is announced to it, and serves the /cluster/v1 HTTP surface a Worker pulls
// tasks through. The embedded database is single-process, so remote workers
// reach a run's queue via the process that owns it — the gateway is that
// doorway; delivery semantics (FIFO, leases, redelivery, report dedup) are
// the queue's own, unchanged.
type Server struct {
	// Stats, when set, tracks remote workers next to the in-process pool in
	// the same registry (/api/v1/workers shows both).
	Stats *workflow.WorkerRegistry

	mu   sync.Mutex
	runs map[string]*workflow.RunHandle
	wake chan struct{}
}

// NewServer builds a gateway; register it as core.System.Gateway (or any
// EventEngine.Gateway) and mount Handler() on an HTTP server.
func NewServer(stats *workflow.WorkerRegistry) *Server {
	return &Server{Stats: stats, runs: map[string]*workflow.RunHandle{}, wake: make(chan struct{})}
}

// RunStarted implements workflow.RunGateway.
func (g *Server) RunStarted(h *workflow.RunHandle) {
	g.mu.Lock()
	g.runs[h.RunID()] = h
	close(g.wake)
	g.wake = make(chan struct{})
	g.mu.Unlock()
}

// RunFinished implements workflow.RunGateway.
func (g *Server) RunFinished(runID string) {
	g.mu.Lock()
	delete(g.runs, runID)
	g.mu.Unlock()
}

// Runs lists the run IDs currently open for remote pulling, sorted.
func (g *Server) Runs() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.runs))
	for id := range g.runs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (g *Server) pick() (*workflow.RunHandle, <-chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := make([]string, 0, len(g.runs))
	for id := range g.runs {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, g.wake
	}
	sort.Strings(ids)
	return g.runs[ids[0]], g.wake
}

// remoteID is the registry namespace for out-of-process workers.
func remoteID(name string) string { return "r-" + name }

// dequeueAny hands the next task of any live run to the named worker,
// blocking until ctx is done. ok=false means the window closed with nothing
// ready (the HTTP layer answers 204 and the worker re-polls).
func (g *Server) dequeueAny(ctx context.Context, name string) (string, workflow.RemoteTask, bool) {
	for {
		h, wake := g.pick()
		if h == nil {
			select {
			case <-ctx.Done():
				return "", workflow.RemoteTask{}, false
			case <-wake:
				continue
			}
		}
		wid := g.Stats.RegisterRemote(name, h.RunID())
		// A bounded per-run try keeps the poll responsive to runs that start
		// (or close) while we block on an idle queue.
		tctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
		rt, err := h.Dequeue(tctx, wid)
		cancel()
		if err == nil {
			return h.RunID(), rt, true
		}
		if ctx.Err() != nil {
			return "", workflow.RemoteTask{}, false
		}
	}
}

// wire types of the /cluster/v1 protocol.
type (
	pullRequest struct {
		Worker string `json:"worker"`
		WaitMS int64  `json:"wait_ms"`
	}
	pullResponse struct {
		RunID     string                   `json:"run_id"`
		Task      workflow.Task            `json:"task"`
		Processor *workflow.Processor      `json:"processor"`
		Inputs    map[string]workflow.Data `json:"inputs"`
	}
	reportRequest struct {
		Worker  string                   `json:"worker"`
		RunID   string                   `json:"run_id"`
		Task    workflow.Task            `json:"task"`
		Inputs  map[string]workflow.Data `json:"inputs,omitempty"`
		Outputs map[string]workflow.Data `json:"outputs,omitempty"`
		Error   string                   `json:"error,omitempty"`
	}
)

// Handler returns the gateway's HTTP surface, rooted at /cluster/v1/.
func (g *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/v1/register", g.handleRegister)
	mux.HandleFunc("/cluster/v1/dequeue", g.handleDequeue)
	mux.HandleFunc("/cluster/v1/complete", g.handleComplete)
	mux.HandleFunc("/cluster/v1/fail", g.handleFail)
	mux.HandleFunc("/cluster/v1/runs", g.handleRuns)
	return mux
}

// ServeHTTP lets the Server be mounted directly.
func (g *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.Handler().ServeHTTP(w, r) }

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (g *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req pullRequest
	if !decode(w, r, &req) {
		return
	}
	writeJSON(w, map[string]string{"id": g.Stats.RegisterRemote(req.Worker, "")})
}

func (g *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"runs": g.Runs()})
}

func (g *Server) handleDequeue(w http.ResponseWriter, r *http.Request) {
	var req pullRequest
	if !decode(w, r, &req) {
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait <= 0 || wait > 30*time.Second {
		wait = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	runID, rt, ok := g.dequeueAny(ctx, req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, pullResponse{RunID: runID, Task: rt.Task, Processor: rt.Processor, Inputs: rt.Inputs})
}

// handle resolves the run a report belongs to. A missing run is not an
// error: the run finished while the worker was computing (its redelivered
// task completed elsewhere) and the report is moot.
func (g *Server) handle(runID string) *workflow.RunHandle {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs[runID]
}

func (g *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req reportRequest
	if !decode(w, r, &req) {
		return
	}
	if h := g.handle(req.RunID); h != nil {
		var taskErr error
		if req.Error != "" {
			taskErr = errors.New(req.Error)
		}
		h.Complete(req.Task, remoteID(req.Worker), req.Inputs, req.Outputs, taskErr)
	}
	w.WriteHeader(http.StatusOK)
}

func (g *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req reportRequest
	if !decode(w, r, &req) {
		return
	}
	if h := g.handle(req.RunID); h != nil {
		h.Fail(req.Task, remoteID(req.Worker))
	}
	w.WriteHeader(http.StatusOK)
}
