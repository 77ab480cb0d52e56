package workflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// EventEngine is the workflow engine: every run appends an ordered history of
// typed events (history.go) from a single orchestrator goroutine, while N
// workers pull activity tasks from the run's MemoryQueue and report results
// back. Provenance, telemetry, and crash recovery are projections of the
// history stream; resuming a killed run is Resume — replay the persisted
// prefix, re-enqueue only the missing tasks, append after it.
type EventEngine struct {
	registry *Registry
	// Workers is the worker-pool size (minimum 1): the bound on concurrent
	// service invocations of a run, shared by independent processors and
	// implicit-iteration elements.
	Workers int
	// Stats, when set, receives worker liveness and queue gauges for the
	// /metrics bridge. All WorkerRegistry methods are nil-safe.
	Stats *WorkerRegistry
	// KillWorker is the chaos hook: called after each dequeue with the
	// worker's ID and completed-task count; returning true makes the worker
	// Nack the task and exit (the last live worker always survives so the
	// run can finish).
	KillWorker func(workerID string, tasksDone int) bool
	// Gateway, when set, is told when runs start and finish so out-of-process
	// workers can attach to the run's queue (cluster.Server implements it).
	// Remote workers pull tasks through the RunHandle and report through the
	// same orchestrator channel as the in-process pool.
	Gateway RunGateway

	metrics engineMetrics
}

// RunGateway observes run lifecycles on behalf of out-of-process workers.
type RunGateway interface {
	// RunStarted is called before the first task is enqueued; the handle
	// stays valid until RunFinished.
	RunStarted(h *RunHandle)
	// RunFinished is called after the run's queue has closed and drained.
	RunFinished(runID string)
}

// MintRunID returns a fresh engine-unique run ID with the given prefix
// (multi-tenant callers pass "tenant:" so the ID itself carries the routing
// key) — the same counter Run uses, exported so callers can know the run's
// identity (for admission, lease acquisition and fence installation) before
// the run starts.
func MintRunID(prefix string) string {
	return prefix + fmt.Sprintf("run-%06d", atomic.AddInt64(&runCounter, 1))
}

// RaiseRunCounter makes MintRunID skip every ordinal up to that of id — an
// unqualified "run-%06d" ID some earlier process minted — so a restarted
// process never re-issues an ID its store already holds. IDs of any other
// shape are ignored, and the counter only ever moves forward.
func RaiseRunCounter(id string) {
	digits, ok := strings.CutPrefix(id, "run-")
	if !ok {
		return
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return
	}
	for {
		cur := atomic.LoadInt64(&runCounter)
		if n <= cur || atomic.CompareAndSwapInt64(&runCounter, cur, n) {
			return
		}
	}
}

// NewEventEngine builds an event-sourced engine over the given registry.
func NewEventEngine(reg *Registry) *EventEngine { return &EventEngine{registry: reg} }

// Metrics returns the engine's cumulative instrumentation counters.
func (e *EventEngine) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Invocations:        e.metrics.invocations.Load(),
		ElementsDispatched: e.metrics.elementsDispatched.Load(),
		Batches:            e.metrics.batches.Load(),
		BatchedElements:    e.metrics.batchedElements.Load(),
		InFlight:           e.metrics.inFlight.Load(),
		PeakInFlight:       e.metrics.peakInFlight.Load(),
		QueueWait:          e.metrics.queueWait.Snapshot(),
		Exec:               e.metrics.exec.Snapshot(),
	}
}

// Run validates and executes def, streaming history events to the listeners.
func (e *EventEngine) Run(ctx context.Context, def *Definition, inputs map[string]Data, listeners ...HistoryListener) (*RunResult, error) {
	return e.execute(ctx, def, inputs, "", nil, listeners)
}

// Resume re-executes a run from its persisted history prefix under the
// original run ID: completed activities replay their recorded outputs,
// partially-complete iterations re-enqueue only the elements with no
// iteration-element event, and new events append after the prefix. An empty
// prefix is a full re-execution under the original identity.
func (e *EventEngine) Resume(ctx context.Context, def *Definition, inputs map[string]Data, runID string, history []HistoryEvent, listeners ...HistoryListener) (*RunResult, error) {
	return e.execute(ctx, def, inputs, runID, history, listeners)
}

// foldHistory folds a persisted prefix into resumable state, returning it in
// Seq order, and rejects what only a corrupt store can hold: events for
// processors the definition lacks and history past run-finished.
func foldHistory(def *Definition, history []HistoryEvent) ([]HistoryEvent, *HistoryFold, error) {
	f := &HistoryFold{}
	evs := append([]HistoryEvent(nil), history...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	for _, ev := range evs {
		if f.Finished != nil {
			return nil, nil, fmt.Errorf("workflow: run %q history continues past run-finished", ev.RunID)
		}
		if ev.Activity != "" {
			if _, ok := def.Processor(ev.Activity); !ok {
				return nil, nil, fmt.Errorf("workflow: history for unknown processor %q", ev.Activity)
			}
		}
		f.Apply(ev)
	}
	return evs, f, nil
}

// finalizeFromHistory resumes a run whose history already holds run-finished:
// the run completed durably before the crash, so nothing re-executes. The
// terminal event is replayed through OnHistoryEvent (not folded silently like
// the rest of the prefix) so projections repair whatever finalization the
// crash cut off — completion-rule inference, the run record's terminal status
// — all of it idempotent against state already persisted.
func finalizeFromHistory(def *Definition, runID string, prefix []HistoryEvent, folded *HistoryFold, listeners []HistoryListener) (*RunResult, error) {
	fin := folded.Finished
	for _, l := range listeners {
		if pf, ok := l.(HistoryPrefixer); ok {
			pf.OnHistoryPrefix(prefix[:len(prefix)-1])
		}
	}
	for _, l := range listeners {
		l.OnHistoryEvent(*fin)
	}
	if fin.Status == "failed" {
		return nil, fmt.Errorf("workflow: run %q already failed: %s", runID, fin.Err)
	}
	now := time.Now()
	res := &RunResult{
		RunID: runID, Outputs: map[string]Data{},
		StartedAt: now, FinishedAt: now,
		Invocations: map[string]int{},
	}
	for _, out := range def.Outputs {
		d, ok := fin.Outputs[out.Name]
		if !ok {
			return nil, fmt.Errorf("workflow: finished history for run %q lacks output %q", runID, out.Name)
		}
		res.Outputs[out.Name] = d
	}
	for _, p := range def.Processors {
		if a := folded.Activity(p.Name); a != nil && a.Done {
			res.Replayed = append(res.Replayed, p.Name)
		}
	}
	return res, nil
}

// workerMsg is one worker->orchestrator report.
type workerMsg struct {
	retry   bool // retry-backoff notification, not a completion
	task    Task
	worker  string
	attempt int
	callIn  map[string]Data
	out     map[string]Data
	err     error
}

// activity is the orchestrator's live state for one scheduled processor.
// Fields set before task enqueue (p, fn, batch, inputs, iterating, ctx) are
// read-only afterwards and safe for workers to read; everything else is
// orchestrator-only.
type activity struct {
	p         *Processor
	fn        ServiceFunc
	batch     BatchServiceFunc // nil: the service has no batch form
	inputs    map[string]Data
	iterating bool
	n         int // element count when iterating
	ctx       context.Context
	cancelAct context.CancelFunc
	span      *telemetry.Span
	start     time.Time

	collected map[string][]Data
	seen      []bool
	expected  int // fresh tasks enqueued this execution
	reported  int
	fresh     int // fresh service invocations (for RunResult.Invocations)
	started   bool
	outputs   map[string]Data // staged non-iterating result

	realIdx, cancelIdx int
	realErr, cancelErr error
}

// eventRun is the mutable state of one event-sourced execution. The
// orchestrator goroutine owns every field; workers only read the acts map
// (guarded by mu) and the immutable activity fields noted above.
type eventRun struct {
	e         *EventEngine
	def       *Definition
	runID     string
	listeners []HistoryListener
	q         *MemoryQueue
	runCtx    context.Context
	cancelRun context.CancelFunc
	folded    *HistoryFold

	mu   sync.RWMutex
	acts map[string]*activity

	nextSeq   int
	values    map[string]Data
	remaining map[string]int
	active    int // activities scheduled but not settled
	failErr   error
	result    *RunResult
	msgs      chan workerMsg
	// accepted marks task IDs whose completion report the orchestrator has
	// folded in. Lease-TTL redelivery means a task can legitimately complete
	// twice (the first holder's Ack after expiry is a no-op and its report
	// still arrives); only the first report per task ID counts, so duplicate
	// deliveries can never double-append history.
	accepted map[string]bool
	// done closes when the orchestration loop exits; remote reports select
	// against it instead of blocking on msgs forever.
	done chan struct{}
}

func (r *eventRun) activity(name string) *activity {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.acts[name]
}

func (r *eventRun) setActivity(name string, a *activity) {
	r.mu.Lock()
	r.acts[name] = a
	r.mu.Unlock()
}

// append stamps and emits one history event. Only the orchestrator calls it,
// so listeners observe a totally ordered stream.
func (r *eventRun) append(ev HistoryEvent) {
	ev.Seq = r.nextSeq
	r.nextSeq++
	ev.Time = time.Now()
	ev.RunID = r.runID
	ev.WorkflowID = r.def.ID
	ev.WorkflowName = r.def.Name
	for _, l := range r.listeners {
		l.OnHistoryEvent(ev)
	}
}

func (e *EventEngine) execute(ctx context.Context, def *Definition, inputs map[string]Data, runID string, history []HistoryEvent, listeners []HistoryListener) (*RunResult, error) {
	if err := Validate(def); err != nil {
		return nil, err
	}
	for _, in := range def.Inputs {
		if _, ok := inputs[in.Name]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrMissingInput, in.Name)
		}
	}
	for _, p := range def.Processors {
		if _, ok := e.registry.Lookup(p.Service); !ok {
			return nil, fmt.Errorf("workflow: processor %q needs unregistered service %q", p.Name, p.Service)
		}
	}
	prefix, folded, err := foldHistory(def, history)
	if err != nil {
		return nil, err
	}
	if runID == "" {
		runID = MintRunID("")
	}
	if folded.Finished != nil {
		return finalizeFromHistory(def, runID, prefix, folded, listeners)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	runCtx, wfSpan := telemetry.StartSpan(runCtx, "workflow:"+def.Name, "engine")
	defer wfSpan.Finish()
	wfSpan.SetAttr("run_id", runID)
	wfSpan.SetAttr("workflow_id", def.ID)
	wfSpan.SetAttr("processors", strconv.Itoa(len(def.Processors)))

	workers := e.Workers
	if workers < 1 {
		workers = 1
	}
	r := &eventRun{
		e: e, def: def, runID: runID, listeners: listeners, q: NewMemoryQueue(),
		runCtx: runCtx, cancelRun: cancel, folded: folded,
		acts:      map[string]*activity{},
		values:    map[string]Data{},
		remaining: map[string]int{},
		msgs:      make(chan workerMsg, workers*2+4),
		accepted:  map[string]bool{},
		done:      make(chan struct{}),
		result: &RunResult{
			RunID:       runID,
			Outputs:     map[string]Data{},
			StartedAt:   time.Now(),
			Invocations: map[string]int{},
		},
	}

	// Hand the replayed prefix to projections before any new event, then
	// continue the sequence after it. A prefix always carries run-started
	// (it is the first event appended), so only fresh runs re-open.
	if len(prefix) > 0 {
		for _, l := range listeners {
			if pf, ok := l.(HistoryPrefixer); ok {
				pf.OnHistoryPrefix(prefix)
			}
		}
		r.nextSeq = prefix[len(prefix)-1].Seq + 1
	}
	if !folded.Started {
		r.append(HistoryEvent{Type: HistoryRunStarted, Inputs: inputs, Annotations: def.Annotations})
	}

	// Seed the dataflow: workflow inputs, zero-input processors, and the
	// recorded outputs of prefix-completed activities (definition order
	// keeps replay deterministic).
	for name, d := range inputs {
		r.values[Endpoint{Port: name}.String()] = d
	}
	for _, p := range def.Processors {
		r.remaining[p.Name] = len(p.Inputs)
	}
	var ready []*Processor
	for _, p := range def.Processors {
		if len(p.Inputs) == 0 {
			ready = append(ready, p)
		}
	}
	for _, l := range def.Links {
		if l.Source.Processor == "" {
			ready = append(ready, r.deliver(l, inputs[l.Source.Port])...)
		}
	}
	replayed := 0
	for _, p := range def.Processors {
		fa := folded.Activity(p.Name)
		if fa == nil || !fa.Done {
			continue
		}
		r.result.Replayed = append(r.result.Replayed, p.Name)
		replayed++
		for _, l := range def.Links {
			if l.Source.Processor != p.Name {
				continue
			}
			d, ok := fa.Outputs[l.Source.Port]
			if !ok {
				return nil, fmt.Errorf("workflow: history for %q lacks output %q", p.Name, l.Source.Port)
			}
			ready = append(ready, r.deliver(l, d)...)
		}
	}
	if replayed > 0 {
		wfSpan.SetAttr("replayed", strconv.Itoa(replayed))
		live := ready[:0]
		for _, p := range ready {
			if fa := folded.Activity(p.Name); fa == nil || !fa.Done {
				live = append(live, p)
			}
		}
		ready = live
	}

	// Start the worker pool, then schedule the ready frontier and run the
	// orchestration loop until every scheduled activity settles.
	var wg sync.WaitGroup
	var alive atomic.Int64
	alive.Store(int64(workers))
	for i := 0; i < workers; i++ {
		id := e.Stats.Register(runID)
		if id == "" {
			id = fmt.Sprintf("w%d", i+1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.worker(id, &alive)
		}()
	}
	if e.Gateway != nil {
		e.Gateway.RunStarted(&RunHandle{r: r})
	}
	for _, p := range ready {
		r.schedule(p)
	}
	for r.active > 0 {
		r.handle(<-r.msgs)
	}
	close(r.done) // unblock any remote report racing the loop exit

	if r.failErr == nil {
		for _, out := range def.Outputs {
			v, ok := r.values[Endpoint{Port: out.Name}.String()]
			if !ok {
				r.failErr = fmt.Errorf("workflow: output %q was never produced", out.Name)
				break
			}
			r.result.Outputs[out.Name] = v
		}
	}
	if r.failErr != nil {
		wfSpan.SetAttr("error", r.failErr.Error())
		r.append(HistoryEvent{Type: HistoryRunFinished, Status: "failed", Err: r.failErr.Error()})
	} else {
		r.append(HistoryEvent{Type: HistoryRunFinished, Status: "completed", Outputs: r.result.Outputs})
	}
	r.q.Close()
	wg.Wait() // all worker spans recorded before the run returns
	if e.Gateway != nil {
		e.Gateway.RunFinished(runID)
	}
	r.result.FinishedAt = time.Now()
	return r.result, r.failErr
}

// schedule binds a processor's inputs, appends its scheduled event, and
// enqueues its tasks — only the elements the prefix does not already record.
func (r *eventRun) schedule(p *Processor) {
	if r.failErr != nil {
		return // no events after a failure
	}
	fa := r.folded.Activity(p.Name)
	inputs := map[string]Data{}
	if fa != nil && fa.Scheduled && fa.Inputs != nil {
		inputs = fa.Inputs // event-sourced: the recorded binding is the truth
	} else {
		for _, in := range p.Inputs {
			inputs[in.Name] = r.values[Endpoint{Processor: p.Name, Port: in.Name}.String()]
		}
	}
	fn, _ := r.e.registry.Lookup(p.Service)
	batch, _ := r.e.registry.LookupBatch(p.Service)
	sctx, span := telemetry.StartSpan(r.runCtx, "processor:"+p.Name, "engine")
	span.SetAttr("service", p.Service)
	actx, acancel := context.WithCancel(sctx)
	a := &activity{
		p: p, fn: fn, batch: batch, inputs: inputs, ctx: actx, cancelAct: acancel,
		span: span, start: time.Now(), realIdx: -1, cancelIdx: -1,
	}
	r.setActivity(p.Name, a)
	r.active++

	iterating, n, shapeErr := iterationShape(p, inputs)
	if fa == nil || !fa.Scheduled {
		ev := HistoryEvent{
			Type: HistoryActivityScheduled, Activity: p.Name, Service: p.Service,
			Inputs: inputs, Annotations: p.Annotations, Elements: -1,
		}
		if shapeErr == nil && iterating {
			ev.Elements = n
		}
		r.append(ev)
		if IsNestedService(p.Service) {
			r.append(HistoryEvent{Type: HistorySubWorkflow, Activity: p.Name, Service: p.Service})
		}
	}
	if shapeErr != nil {
		r.failActivity(a, 0, shapeErr)
		return
	}
	a.iterating, a.n = iterating, n
	if !iterating {
		a.expected = 1
		r.enqueue(Task{ID: TaskID(r.runID, p.Name, -1), RunID: r.runID, Activity: p.Name, Element: -1})
		return
	}
	a.collected = map[string][]Data{}
	for _, port := range p.Outputs {
		a.collected[port.Name] = make([]Data, n)
	}
	a.seen = make([]bool, n)
	missing := n
	if fa != nil {
		for _, el := range fa.Elements {
			i := el.Index
			if i < 0 || i >= n || a.seen[i] {
				continue
			}
			a.seen[i] = true
			missing--
			for _, port := range p.Outputs {
				a.collected[port.Name][i] = el.Outputs[port.Name]
			}
		}
	}
	// The missing elements go to the queue in one operation, so the worker
	// that takes the first finds its companions already there.
	tasks := make([]Task, 0, missing)
	for i := 0; i < n; i++ {
		if !a.seen[i] {
			tasks = append(tasks, Task{ID: TaskID(r.runID, p.Name, i), RunID: r.runID, Activity: p.Name, Element: i})
		}
	}
	if len(tasks) == 0 {
		r.settle(a) // every element replayed from the prefix (or n == 0)
		return
	}
	a.expected = len(tasks)
	r.enqueue(tasks...)
}

func (r *eventRun) enqueue(ts ...Task) {
	now := time.Now()
	for i := range ts {
		ts[i].EnqueuedAt = now
	}
	// Enqueue fails only on a closed queue, and execute closes the queue
	// after the orchestration loop — the sole caller of enqueue — has exited.
	_ = r.q.Enqueue(ts...)
	r.e.Stats.TasksEnqueued(len(ts))
}

// handle folds one worker report into the owning activity.
func (r *eventRun) handle(msg workerMsg) {
	a := r.activity(msg.task.Activity)
	if a == nil {
		return
	}
	if !a.started {
		a.started = true
		r.append(HistoryEvent{
			Type: HistoryActivityStarted, Activity: a.p.Name,
			Service: a.p.Service, Worker: msg.worker, Element: -1,
		})
	}
	if msg.retry {
		r.append(HistoryEvent{
			Type: HistoryRetryBackoff, Activity: a.p.Name, Worker: msg.worker,
			Element: msg.task.Element, Attempt: msg.attempt,
		})
		return
	}
	if r.accepted[msg.task.ID] {
		// Duplicate delivery (an expired lease redelivered work the original
		// holder also finished): exactly one report per task may fold in.
		return
	}
	r.accepted[msg.task.ID] = true
	a.reported++
	switch {
	case msg.err != nil:
		i := msg.task.Element
		if i < 0 {
			i = 0
		}
		if errors.Is(msg.err, context.Canceled) || errors.Is(msg.err, context.DeadlineExceeded) {
			if a.cancelIdx == -1 || i < a.cancelIdx {
				a.cancelIdx, a.cancelErr = i, msg.err
			}
		} else if a.realIdx == -1 || i < a.realIdx {
			a.realIdx, a.realErr = i, msg.err
		}
		a.cancelAct()
	case msg.task.Element >= 0:
		r.append(HistoryEvent{
			Type: HistoryIterationElement, Activity: a.p.Name, Worker: msg.worker,
			Element: msg.task.Element, Inputs: msg.callIn, Outputs: msg.out,
		})
		for _, port := range a.p.Outputs {
			a.collected[port.Name][msg.task.Element] = msg.out[port.Name]
		}
		a.seen[msg.task.Element] = true
		a.fresh++
	default:
		a.outputs = msg.out
		a.fresh++
	}
	if a.reported == a.expected {
		r.settle(a)
	}
}

// settle closes an activity: failure precedence is the lowest real error
// index, then a bare run-cancellation, then the lowest cancellation fallout
// (an aborted sibling never masks the root cause); success collects outputs,
// appends the completed event, and delivers downstream.
func (r *eventRun) settle(a *activity) {
	if a.iterating {
		switch {
		case a.realIdx >= 0:
			r.failActivity(a, a.realIdx+1, fmt.Errorf("iteration %d: %w", a.realIdx, a.realErr))
			return
		case r.runCtx.Err() != nil:
			done := a.cancelIdx
			if done < 0 {
				done = 0
			}
			r.failActivity(a, done, r.runCtx.Err())
			return
		case a.cancelIdx >= 0:
			r.failActivity(a, a.cancelIdx+1, fmt.Errorf("iteration %d: %w", a.cancelIdx, a.cancelErr))
			return
		}
	} else if a.realIdx >= 0 {
		r.failActivity(a, 1, a.realErr)
		return
	} else if a.cancelIdx >= 0 {
		r.failActivity(a, 1, a.cancelErr)
		return
	}

	iterations := 1
	outputs := a.outputs
	if a.iterating {
		iterations = a.n
		outputs = collectOutputs(a.collected)
	}
	a.span.SetAttr("iterations", strconv.Itoa(iterations))
	a.span.Finish()
	a.cancelAct()
	r.append(HistoryEvent{
		Type: HistoryActivityCompleted, Activity: a.p.Name, Outputs: outputs,
		Iterations: iterations, Duration: time.Since(a.start),
	})
	r.result.Invocations[a.p.Name] += a.fresh
	var ready []*Processor
	for _, l := range r.def.Links {
		if l.Source.Processor != a.p.Name {
			continue
		}
		d, ok := outputs[l.Source.Port]
		if !ok {
			if r.failErr == nil {
				r.failErr = fmt.Errorf("workflow: processor %q did not produce output %q", a.p.Name, l.Source.Port)
				r.cancelRun()
			}
			r.active--
			return
		}
		ready = append(ready, r.deliver(l, d)...)
	}
	r.active--
	if r.failErr != nil {
		return
	}
	for _, p := range ready {
		r.schedule(p)
	}
}

// failActivity closes an activity with an error and fails the run (first
// failure wins).
func (r *eventRun) failActivity(a *activity, iterations int, err error) {
	a.span.SetAttr("iterations", strconv.Itoa(iterations))
	a.span.SetAttr("error", err.Error())
	a.span.Finish()
	a.cancelAct()
	r.append(HistoryEvent{
		Type: HistoryActivityFailed, Activity: a.p.Name, Iterations: iterations,
		Duration: time.Since(a.start), Err: err.Error(),
	})
	if r.failErr == nil {
		r.failErr = fmt.Errorf("workflow: processor %q: %w", a.p.Name, err)
		r.cancelRun()
	}
	r.active--
}

// deliver binds a datum to a link target, returning processors that became
// ready. Prefix-completed activities are never re-scheduled.
func (r *eventRun) deliver(l Link, d Data) []*Processor {
	key := l.Target.String()
	if _, dup := r.values[key]; dup {
		return nil
	}
	r.values[key] = d
	if l.Target.Processor == "" {
		return nil
	}
	r.remaining[l.Target.Processor]--
	if r.remaining[l.Target.Processor] == 0 {
		if fa := r.folded.Activity(l.Target.Processor); fa != nil && fa.Done {
			return nil
		}
		if p, ok := r.def.Processor(l.Target.Processor); ok {
			return []*Processor{p}
		}
	}
	return nil
}

// MaxElementBatch bounds how many iteration elements one batch-form
// invocation carries: the element a worker dequeued plus the ready companions
// it leases beside it. Large enough that a name list costs a handful of
// authority round trips, small enough that a pool of workers still shares a
// long iteration and one call stays well inside a batch budget.
const MaxElementBatch = 256

// report delivers a message to the orchestration loop, giving up once the
// loop has exited: only a duplicate delivery can still be outstanding then
// (a task whose redelivery already completed), and the dedup would discard
// it anyway.
func (r *eventRun) report(m workerMsg) {
	select {
	case r.msgs <- m:
	case <-r.done:
	}
}

// worker is one pool goroutine: dequeue, lease the ready companions when the
// element's service has a batch form, (maybe die — chaos), drain a cancelled
// activity's tasks or invoke, ack, report. Every dequeued task produces
// exactly one eventual done-report: a killed worker Nacks every task it
// leased, so the queue redelivers them to a surviving worker.
func (r *eventRun) worker(id string, alive *atomic.Int64) {
	stats := r.e.Stats
	tasksDone := 0
	for {
		t, err := r.q.Dequeue(context.Background())
		if err != nil {
			stats.Exited(id, false)
			return
		}
		// schedule publishes the activity before it enqueues the first task.
		a := r.activity(t.Activity)
		one := [1]Task{t}
		lease := one[:]
		if a.batch != nil && t.Element >= 0 && a.ctx.Err() == nil {
			lease = append(lease, r.q.DequeueElements(t.Activity, MaxElementBatch-1)...)
		}
		for range lease {
			stats.TaskStarted(id)
		}
		if kill := r.e.KillWorker; kill != nil && kill(id, tasksDone) {
			if alive.Add(-1) >= 1 {
				ids := make([]string, len(lease))
				for i, lt := range lease {
					ids[i] = lt.ID
					stats.TaskRequeued(id)
				}
				r.q.Nack(ids...)
				stats.Exited(id, true)
				return
			}
			alive.Add(1) // the last live worker shrugs the kill off
		}
		switch err := a.ctx.Err(); {
		case err != nil:
			// The activity was cancelled (a sibling element failed, or the
			// run did): drain without a span or a service call.
			for _, lt := range lease {
				r.q.Ack(lt.ID)
				stats.TaskDone(id)
				r.report(workerMsg{task: lt, worker: id, err: err})
			}
		case len(lease) > 1:
			r.invokeBatch(id, a, lease)
		default:
			r.invoke(id, a, t, 0, nil)
		}
		tasksDone += len(lease)
	}
}

// enterFlight counts one service call in flight and tracks the peak.
func (m *engineMetrics) enterFlight() {
	cur := m.inFlight.Add(1)
	for {
		peak := m.peakInFlight.Load()
		if cur <= peak || m.peakInFlight.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// invoke runs one task through the service's single form — retries, backoff,
// declared-output check — then acks and reports it. A fresh task starts at
// attempt 0; an element whose slot of a batch call errored continues here
// from attempt 1 with that error as the previous attempt's.
func (r *eventRun) invoke(id string, a *activity, t Task, attempt int, lastErr error) {
	var callIn map[string]Data
	var name string
	m := &r.e.metrics
	fresh := attempt == 0 // a batch slot falling back was counted with its batch
	if t.Element >= 0 {
		callIn = elementInputs(a.p, a.inputs, t.Element)
		name = elementSpanName(a.p, t.Element)
		if fresh {
			m.elementsDispatched.Add(1)
		}
	} else {
		callIn = a.inputs
		name = "invoke:" + a.p.Name
	}
	if fresh {
		m.invocations.Add(1)
	}
	cctx, sp := telemetry.StartSpan(a.ctx, name, "engine")
	wait := time.Since(t.EnqueuedAt)
	m.queueWait.Observe(wait)
	m.enterFlight()
	execStart := time.Now()
	out, err := retryFrom(cctx, a.fn, a.p, Call{Inputs: callIn, Config: a.p.Config}, attempt, lastErr, func(attempt int) {
		r.report(workerMsg{retry: true, task: t, worker: id, attempt: attempt})
	})
	if err == nil {
		err = checkOutputs(a.p, out)
	}
	exec := time.Since(execStart)
	m.exec.Observe(exec)
	m.inFlight.Add(-1)
	if sp != nil {
		sp.SetAttr("service", a.p.Service)
		sp.SetAttr("queue_wait_us", strconv.FormatInt(wait.Microseconds(), 10))
		sp.SetAttr("exec_us", strconv.FormatInt(exec.Microseconds(), 10))
		sp.SetAttr("worker", id)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	sp.Finish()
	r.q.Ack(t.ID)
	r.e.Stats.TaskDone(id)
	r.report(workerMsg{task: t, worker: id, callIn: callIn, out: out, err: err})
}

// invokeBatch runs the leased elements of one activity through the service's
// batch form in a single invocation under the activity's context — one span,
// one queue-wait and one exec sample for the lot — then acks and reports
// every element on its own, exactly as if each had been invoked alone: the
// orchestrator, and so history and provenance, see the same per-element
// reports either way. A slot that errored is not the element's last word
// when the processor allows retries: it continues on the single-call path
// from attempt 1.
func (r *eventRun) invokeBatch(id string, a *activity, lease []Task) {
	n := len(lease)
	calls := make([]Call, n)
	for i, t := range lease {
		calls[i] = Call{Inputs: elementInputs(a.p, a.inputs, t.Element), Config: a.p.Config}
	}
	m := &r.e.metrics
	m.elementsDispatched.Add(int64(n))
	m.invocations.Add(int64(n))
	m.batches.Add(1)
	m.batchedElements.Add(int64(n))
	cctx, sp := telemetry.StartSpan(a.ctx, "batch:"+a.p.Name, "engine")
	wait := time.Since(lease[0].EnqueuedAt)
	m.queueWait.Observe(wait)
	m.enterFlight()
	execStart := time.Now()
	results := a.batch(cctx, calls)
	exec := time.Since(execStart)
	m.exec.Observe(exec)
	m.inFlight.Add(-1)
	if sp != nil {
		sp.SetAttr("service", a.p.Service)
		sp.SetAttr("elements", strconv.Itoa(n))
		sp.SetAttr("queue_wait_us", strconv.FormatInt(wait.Microseconds(), 10))
		sp.SetAttr("exec_us", strconv.FormatInt(exec.Microseconds(), 10))
		sp.SetAttr("worker", id)
	}
	sp.Finish()

	if len(results) != n {
		err := fmt.Errorf("service %q batch form returned %d results for %d calls", a.p.Service, len(results), n)
		results = make([]CallResult, n)
		for i := range results {
			results[i].Err = err
		}
	}
	// Settled slots report first; the slots still owed retries follow, so a
	// backoff sleep never holds back a finished element.
	var retry []int
	for i, t := range lease {
		res := results[i]
		if res.Err != nil && a.p.Retries > 0 && a.ctx.Err() == nil {
			retry = append(retry, i)
			continue
		}
		if res.Err == nil {
			res.Err = checkOutputs(a.p, res.Outputs)
		}
		r.q.Ack(t.ID)
		r.e.Stats.TaskDone(id)
		r.report(workerMsg{task: t, worker: id, callIn: calls[i].Inputs, out: res.Outputs, err: res.Err})
	}
	for _, i := range retry {
		r.invoke(id, a, lease[i], 1, results[i].Err)
	}
}

// retryFrom invokes the service, retrying up to p.Retries extra times on
// error. Retries back off exponentially with full jitter when the processor
// configures RetryBase (see backoffDelay); the zero default retries
// immediately. Context cancellation is never retried, and the backoff sleep
// aborts as soon as the context is done. notify, when non-nil, is called
// before each backoff so the orchestrator can append retry-backoff events.
// A fresh call enters at attempt first = 0 with a nil lastErr; a call whose
// attempt 0 already happened elsewhere (a batch slot) enters at 1 with the
// error that attempt returned.
func retryFrom(ctx context.Context, fn ServiceFunc, p *Processor, call Call, first int, lastErr error, notify func(attempt int)) (map[string]Data, error) {
	for attempt := first; attempt <= p.Retries; attempt++ {
		if attempt > 0 {
			if notify != nil {
				notify(attempt)
			}
			if err := sleepBackoff(ctx, backoffDelay(p, attempt)); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, err := fn(ctx, call)
		if err == nil {
			return out, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	if p.Retries > 0 {
		return nil, fmt.Errorf("after %d attempts: %w", p.Retries+1, lastErr)
	}
	return nil, lastErr
}
