// Package adapter implements the Workflow Adapter of the architecture
// (Fig. 1, box B): it lets experts attach quality metadata to a workflow
// specification without changing the workflow model, and it instruments
// workflows so that quality attributes are produced as byproducts of
// execution (the paper's Process Designer role).
//
// Two mechanisms are provided:
//
//  1. Quality annotations — Q(dimension)=value assertions added to processor
//     or workflow specifications (Listing 1). These flow through the engine's
//     events into the provenance graph untouched.
//  2. Execution probes — service wrappers that observe every invocation
//     (latency, failures, output volume), the measured counterpart of the
//     asserted annotations.
package adapter

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/workflow"
)

// AddQualityAnnotations returns a clone of def in which the named processor
// carries one Q(dimension)=value annotation per entry of dims. The input
// definition is never mutated — the repository's copy stays pristine.
func AddQualityAnnotations(def *workflow.Definition, processor string, dims map[string]string, author string, when time.Time) (*workflow.Definition, error) {
	out := def.Clone()
	if _, ok := out.Processor(processor); !ok {
		return nil, fmt.Errorf("adapter: workflow %q has no processor %q", def.Name, processor)
	}
	keys := make([]string, 0, len(dims))
	for k := range dims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, dim := range keys {
		if err := out.AnnotateProcessor(processor, workflow.QualityKey(dim), dims[dim], author, when); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Observation aggregates the execution-quality byproducts of one processor's
// service across a run (or several runs against the same probe).
type Observation struct {
	Invocations  int
	Failures     int
	TotalLatency time.Duration
	OutputBytes  int64
}

// Probe collects execution-quality observations. One probe may serve many
// runs; it is safe for concurrent use.
type Probe struct {
	mu  sync.Mutex
	obs map[string]*Observation // service name -> observation
}

// NewProbe builds an empty probe.
func NewProbe() *Probe { return &Probe{obs: make(map[string]*Observation)} }

// Instrument returns a new registry in which every service referenced by def
// is wrapped to report into the probe — its batch form too, when it has one.
// Unreferenced services are passed through untouched. The original registry
// is not modified.
func (p *Probe) Instrument(def *workflow.Definition, reg *workflow.Registry) (*workflow.Registry, error) {
	out := reg.Clone()
	for _, proc := range def.Processors {
		fn, ok := reg.Lookup(proc.Service)
		if !ok {
			return nil, fmt.Errorf("adapter: service %q not registered", proc.Service)
		}
		if batch, ok := reg.LookupBatch(proc.Service); ok {
			out.RegisterBatch(proc.Service, p.wrap(proc.Service, fn), p.wrapBatch(proc.Service, batch))
		} else {
			out.Register(proc.Service, p.wrap(proc.Service, fn))
		}
	}
	return out, nil
}

func (p *Probe) wrap(service string, fn workflow.ServiceFunc) workflow.ServiceFunc {
	return func(ctx context.Context, call workflow.Call) (map[string]workflow.Data, error) {
		start := time.Now()
		outputs, err := fn(ctx, call)
		p.observe(service, time.Since(start), workflow.CallResult{Outputs: outputs, Err: err})
		return outputs, err
	}
}

// wrapBatch observes a batch call as the invocations it stands for: one per
// slot, each succeeding or failing on its own, the call's latency counted
// once.
func (p *Probe) wrapBatch(service string, fn workflow.BatchServiceFunc) workflow.BatchServiceFunc {
	return func(ctx context.Context, calls []workflow.Call) []workflow.CallResult {
		start := time.Now()
		results := fn(ctx, calls)
		p.observe(service, time.Since(start), results...)
		return results
	}
}

// observe folds the results of one service call taking elapsed into the
// service's observation.
func (p *Probe) observe(service string, elapsed time.Duration, results ...workflow.CallResult) {
	var failures int
	var outBytes int64
	for _, res := range results {
		if res.Err != nil {
			failures++
		}
		for _, d := range res.Outputs {
			outBytes += int64(len(d.String()))
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	o := p.obs[service]
	if o == nil {
		o = &Observation{}
		p.obs[service] = o
	}
	o.Invocations += len(results)
	o.Failures += failures
	o.TotalLatency += elapsed
	o.OutputBytes += outBytes
}
