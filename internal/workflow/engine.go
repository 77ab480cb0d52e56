package workflow

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Call is one service invocation: the bound inputs plus the processor's
// static configuration.
type Call struct {
	Inputs map[string]Data
	Config map[string]string
}

// Input returns the named input (zero Data when absent).
func (c Call) Input(name string) Data { return c.Inputs[name] }

// ServiceFunc implements a processor. It must be safe for concurrent use:
// the engine may invoke it from several goroutines (iteration elements and
// independent processors run in parallel).
type ServiceFunc func(ctx context.Context, call Call) (map[string]Data, error)

// CallResult is one call's outcome inside a batch: what the single form would
// have returned for it.
type CallResult struct {
	Outputs map[string]Data
	Err     error
}

// BatchServiceFunc is the optional batch form of a service: handed the calls
// of several elements of one implicit iteration, it answers them in one
// invocation — one result per call, aligned by index. Each slot must hold
// exactly what the single form would have returned for that call; the engine
// reports the slots element by element, so history and provenance cannot
// tell which form ran. Like ServiceFunc it must be safe for concurrent use.
type BatchServiceFunc func(ctx context.Context, calls []Call) []CallResult

// Registry maps service names to implementations. Workflows reference
// services by name, decoupling specifications from code — this is what lets
// the Workflow Adapter rewrite specifications without touching the model.
type Registry struct {
	mu    sync.RWMutex
	m     map[string]ServiceFunc
	batch map[string]BatchServiceFunc
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]ServiceFunc), batch: make(map[string]BatchServiceFunc)}
}

// Register binds a service name; re-registration replaces, and drops a batch
// form registered beside the previous implementation.
func (r *Registry) Register(name string, fn ServiceFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = fn
	delete(r.batch, name)
}

// RegisterBatch binds a service name to a single form and a batch form of the
// same implementation. The engine uses the batch form to dispatch the ready
// first attempts of an implicit iteration's elements in one invocation (see
// MaxElementBatch); everything else — single calls and retries — uses fn.
func (r *Registry) RegisterBatch(name string, fn ServiceFunc, batch BatchServiceFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = fn
	r.batch[name] = batch
}

// Lookup resolves a service name.
func (r *Registry) Lookup(name string) (ServiceFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.m[name]
	return fn, ok
}

// LookupBatch resolves the batch form of a service, if it has one.
func (r *Registry) LookupBatch(name string) (BatchServiceFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.batch[name]
	return fn, ok
}

// Clone returns an independent copy of the registry: a run that binds
// services of its own starts from one so it never rebinds a shared registry
// under another run.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := NewRegistry()
	for name, fn := range r.m {
		out.m[name] = fn
	}
	for name, fn := range r.batch {
		out.batch[name] = fn
	}
	return out
}

// RunResult summarizes one workflow execution.
type RunResult struct {
	RunID      string
	Outputs    map[string]Data
	StartedAt  time.Time
	FinishedAt time.Time
	// Invocations counts service calls per processor (iteration elements
	// count individually). Processors fully replayed from a history prefix
	// do not appear here — no service ran for them in this execution.
	Invocations map[string]int
	// Replayed lists the processors whose outputs a resumed run replayed
	// from its history prefix instead of re-executing (definition order).
	Replayed []string
}

// engineMetrics counts engine activity across runs. All fields are atomics:
// the hot path never takes a lock to record them.
type engineMetrics struct {
	invocations        atomic.Int64 // element and single invocations started
	elementsDispatched atomic.Int64 // implicit-iteration elements dispatched
	batches            atomic.Int64 // batch-form invocations
	batchedElements    atomic.Int64 // elements those batches carried
	inFlight           atomic.Int64 // service calls currently executing
	peakInFlight       atomic.Int64 // high-water mark of inFlight
}

// MetricsSnapshot is a point-in-time reading of the engine's counters,
// cumulative over every run the engine has executed.
type MetricsSnapshot struct {
	Invocations        int64 // invocations started (each element of a batch counts)
	ElementsDispatched int64 // iteration elements dispatched to workers
	Batches            int64 // batch-form service calls
	BatchedElements    int64 // iteration elements those batch calls carried
	InFlight           int64 // service calls executing right now
	PeakInFlight       int64 // high-water mark of concurrent calls
}

var runCounter int64

// ErrMissingInput is returned when Run is not given a required workflow input.
var ErrMissingInput = errors.New("workflow: missing workflow input")

// backoffDelay computes the pause before retry attempt n (n ≥ 1):
// exponential growth from p.RetryBase, capped at p.RetryCap (default 30s
// when a base is set), with full jitter — a uniform draw over (0, delay] so
// concurrent retries against a struggling authority spread out instead of
// hammering it in lockstep. Zero RetryBase means no backoff.
func backoffDelay(p *Processor, attempt int) time.Duration {
	if p.RetryBase <= 0 {
		return 0
	}
	ceiling := p.RetryCap
	if ceiling <= 0 {
		ceiling = 30 * time.Second
	}
	d := p.RetryBase
	for i := 1; i < attempt && d < ceiling; i++ {
		d *= 2
	}
	if d > ceiling {
		d = ceiling
	}
	return time.Duration(rand.Int63n(int64(d))) + 1
}

func checkOutputs(p *Processor, out map[string]Data) error {
	for _, port := range p.Outputs {
		if _, ok := out[port.Name]; !ok {
			return fmt.Errorf("service %q omitted output %q", p.Service, port.Name)
		}
	}
	return nil
}
