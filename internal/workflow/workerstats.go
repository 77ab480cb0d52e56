package workflow

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// keptExited bounds the exited workers' rows a registry keeps: every run
// mints its own workers, so a long-lived process would otherwise hold a row
// for every worker any run ever started.
const keptExited = 64

// WorkerRegistry tracks the event-sourced engine's worker pool and queue
// gauges across runs, for the /metrics bridge and the /api/v1/workers
// endpoint. It keeps the rows of live workers and of the keptExited most
// recently exited ones; the cumulative counters cover every worker. One
// registry is shared process-wide (core.System owns it); every method is safe
// on a nil receiver so the engine can run unobserved.
type WorkerRegistry struct {
	mu      sync.Mutex
	nextID  int64
	workers map[string]*WorkerInfo
	// recent rings the IDs of the most recently exited workers; the row an
	// exit overwrites here is deleted.
	recent     [keptExited]string
	recentNext int

	// queue gauges, engine-driven: ready (enqueued, not yet dequeued) and
	// leased (dequeued, not yet done) task counts across live runs.
	queueDepth int64
	inFlight   int64

	// cumulative counters
	started    int64
	exited     int64
	killed     int64
	tasksTotal int64
}

// WorkerInfo is one worker's liveness snapshot.
type WorkerInfo struct {
	ID         string    `json:"id"`
	RunID      string    `json:"run_id"`
	Tasks      int64     `json:"tasks"`
	Busy       bool      `json:"busy"`
	Alive      bool      `json:"alive"`
	Killed     bool      `json:"killed"`
	LastActive time.Time `json:"last_active"`
}

// NewWorkerRegistry returns an empty registry.
func NewWorkerRegistry() *WorkerRegistry {
	return &WorkerRegistry{workers: make(map[string]*WorkerInfo)}
}

// Register mints a process-unique worker ID ("w-1", "w-2", ...) bound to a
// run and marks it alive. On a nil registry it returns "" and the engine
// falls back to run-local worker names.
func (r *WorkerRegistry) Register(runID string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.started++
	id := fmt.Sprintf("w-%d", r.nextID)
	r.workers[id] = &WorkerInfo{ID: id, RunID: runID, Alive: true, LastActive: time.Now()}
	return id
}

// TaskStarted marks a worker busy with one dequeued task.
func (r *WorkerRegistry) TaskStarted(workerID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queueDepth--
	r.inFlight++
	if w := r.workers[workerID]; w != nil {
		w.Busy = true
		w.LastActive = time.Now()
	}
}

// TaskDone marks a worker's current task finished.
func (r *WorkerRegistry) TaskDone(workerID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inFlight--
	r.tasksTotal++
	if w := r.workers[workerID]; w != nil {
		w.Busy = false
		w.Tasks++
		w.LastActive = time.Now()
	}
}

// TaskRequeued returns a dequeued-but-unfinished task to the ready gauge
// (a killed worker Nacked it).
func (r *WorkerRegistry) TaskRequeued(workerID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inFlight--
	r.queueDepth++
	if w := r.workers[workerID]; w != nil {
		w.Busy = false
	}
}

// TasksEnqueued bumps the ready gauge by n freshly enqueued tasks.
func (r *WorkerRegistry) TasksEnqueued(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queueDepth += int64(n)
}

// Exited marks a worker done; killed workers (chaos trials) are counted
// separately.
func (r *WorkerRegistry) Exited(workerID string, wasKilled bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.exited++
	if wasKilled {
		r.killed++
	}
	if w := r.workers[workerID]; w != nil {
		w.Alive = false
		w.Busy = false
		w.Killed = wasKilled
		w.LastActive = time.Now()
		delete(r.workers, r.recent[r.recentNext])
		r.recent[r.recentNext] = workerID
		r.recentNext = (r.recentNext + 1) % keptExited
	}
}

// Counters exports the registry as flat observation counters for the obs
// bridge ("workers.*" pool counters plus the "queue.*" dispatch gauges).
func (r *WorkerRegistry) Counters() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var alive, busy int64
	for _, w := range r.workers {
		if w.Alive {
			alive++
			if w.Busy {
				busy++
			}
		}
	}
	return map[string]float64{
		"workers.alive":       float64(alive),
		"workers.busy":        float64(busy),
		"workers.started":     float64(r.started),
		"workers.exited":      float64(r.exited),
		"workers.killed":      float64(r.killed),
		"workers.tasks_total": float64(r.tasksTotal),
		"queue.depth":         float64(max64(r.queueDepth, 0)),
		"queue.in_flight":     float64(max64(r.inFlight, 0)),
	}
}

// Snapshot returns every tracked worker, sorted by ID, for the API layer.
func (r *WorkerRegistry) Snapshot() []WorkerInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
