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

// EventEngine is the workflow engine: every run appends an ordered history
// of typed events (history.go). A pure decider (decider.go) makes every
// decision and every event; this file is its driver — the worker pool
// pulling activity tasks from the run's MemoryQueue, retry timers, spans and
// metrics — which feeds it worker reports and carries out its commands.
// Provenance, telemetry, and crash recovery are projections of the history
// stream; resuming a killed run is Resume — fold the persisted prefix into
// the decider, re-dispatch only the missing tasks, append after it.
type EventEngine struct {
	registry *Registry
	// Workers is the worker-pool size (minimum 1): the bound on concurrent
	// service invocations of a run, shared by independent processors and
	// implicit-iteration elements.
	Workers int
	// Gauges, when set, counts the runs' dispatch work for the /metrics
	// bridge.
	Gauges *DispatchGauges

	metrics engineMetrics
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
func NewEventEngine(reg *Registry) *EventEngine {
	return &EventEngine{registry: reg}
}

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

// running is the driver's side of an open activity. It is written once,
// before the activity's first task is enqueued, and only read afterwards.
type running struct {
	p      *Processor
	fn     ServiceFunc
	batch  BatchServiceFunc // nil: the service has no batch form
	inputs map[string]Data
	ctx    context.Context
	cancel context.CancelFunc
	span   *telemetry.Span
}

// eventRun is the driver of one execution. The loop in Resume owns every
// field but acts, which workers read under mu, and q, which is safe for
// concurrent use.
type eventRun struct {
	e         *EventEngine
	d         *decider
	listeners []HistoryListener
	q         *MemoryQueue
	runCtx    context.Context
	cancelRun context.CancelFunc

	mu   sync.RWMutex
	acts map[string]*running

	msgs     chan message
	finished bool
	// done closes when the loop exits; reports select against it instead of
	// blocking on msgs forever.
	done chan struct{}
}

// message is what a worker hands the loop: one report, or the reports of a
// batch-form invocation (lease, non-nil) together with the worker's channel
// the loop signals once it has carried out their decision.
type message struct {
	report    report
	lease     []report
	performed chan<- struct{}
}

func (r *eventRun) activity(name string) *running {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.acts[name]
}

// Resume executes def from a persisted history prefix under runID, streaming
// the events it appends to the listeners: completed activities replay their
// recorded outputs, partially-complete iterations re-enqueue only the
// elements no iteration-element or iteration-batch event records, and new
// events append after the prefix. An empty prefix is a full execution under
// runID; an empty runID mints a fresh one.
func (e *EventEngine) Resume(ctx context.Context, def *Definition, inputs map[string]Data, runID string, history []HistoryEvent, listeners ...HistoryListener) (*RunResult, error) {
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
	if runID == "" {
		runID = MintRunID("")
	}
	d := newDecider(def, runID, inputs)
	prefix := append([]HistoryEvent(nil), history...)
	sort.SliceStable(prefix, func(i, j int) bool { return prefix[i].Seq < prefix[j].Seq })
	for _, ev := range prefix {
		if err := d.apply(ev); err != nil {
			return nil, err
		}
	}
	startedAt := time.Now()
	evs, cmds := d.decide(input{now: startedAt, resume: true})
	if len(cmds) == 0 {
		// The prefix holds run-finished, so nothing re-executes. Its terminal
		// event is delivered again so projections idempotently repair the
		// finalization a crash cut off (inferred edges, the run row).
		handPrefix(listeners, prefix[:len(prefix)-1])
		for _, l := range listeners {
			l.OnHistoryEvent(*d.fold.Finished)
		}
		return runResult(d, startedAt)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	runCtx, wfSpan := telemetry.StartSpan(runCtx, "workflow:"+def.Name, "engine")
	defer wfSpan.Finish()
	wfSpan.SetAttr("run_id", runID)
	wfSpan.SetAttr("workflow_id", def.ID)
	wfSpan.SetAttr("processors", strconv.Itoa(len(def.Processors)))
	if n := len(d.res.Replayed); n > 0 {
		wfSpan.SetAttr("replayed", strconv.Itoa(n))
	}

	workers := max(e.Workers, 1)
	r := &eventRun{
		e: e, d: d, listeners: listeners, q: NewMemoryQueue(),
		runCtx: runCtx, cancelRun: cancel,
		acts: map[string]*running{},
		// Two reports per worker plus slack, so a worker seldom waits for
		// the loop to fold an event.
		msgs: make(chan message, workers*2+4),
		done: make(chan struct{}),
	}
	// A worker is a goroutine that lives exactly as long as the run, named
	// w1…wN within it.
	var wg sync.WaitGroup
	for i := 1; i <= workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.worker("w" + strconv.Itoa(i))
		}()
	}
	// Hand the replayed prefix to projections before any new event.
	handPrefix(listeners, prefix)
	r.perform(evs, cmds)
	for !r.finished {
		m := <-r.msgs
		in := input{now: time.Now(), report: m.report, lease: m.lease}
		r.received(&in.report)
		for i := range in.lease {
			r.received(&in.lease[i])
		}
		r.perform(d.decide(in))
		if m.performed != nil {
			m.performed <- struct{}{}
		}
	}
	if d.err != nil {
		wfSpan.SetAttr("error", d.err.Error())
	}
	close(r.done) // unblock any report racing the loop exit
	r.q.Close()
	wg.Wait() // all worker spans recorded before the run returns
	return runResult(d, startedAt)
}

// received stamps a report with what the loop knows as it reads it: the run
// context's error, and whether the report's own error is a context's.
func (r *eventRun) received(m *report) {
	m.ctxErr = r.runCtx.Err()
	m.cancelled = errors.Is(m.err, context.Canceled) || errors.Is(m.err, context.DeadlineExceeded)
}

// handPrefix gives the replayed prefix to every listener that folds one.
func handPrefix(listeners []HistoryListener, prefix []HistoryEvent) {
	for _, l := range listeners {
		if pf, ok := l.(HistoryPrefixer); ok {
			pf.OnHistoryPrefix(prefix)
		}
	}
}

func runResult(d *decider, startedAt time.Time) (*RunResult, error) {
	d.res.StartedAt, d.res.FinishedAt = startedAt, time.Now()
	return d.res, d.err
}

// perform carries out one decision: it opens the activities it dispatches,
// delivers its events (closing spans on the events that close them), then
// enqueues tasks — after the listeners saw their activity-scheduled.
func (r *eventRun) perform(evs []HistoryEvent, cmds []command) {
	for _, c := range cmds {
		if c.kind == cmdDispatch {
			r.open(c.p)
		}
	}
	for _, ev := range evs {
		if ev.Type == HistoryActivityCompleted || ev.Type == HistoryActivityFailed {
			a := r.activity(ev.Activity)
			a.span.SetAttr("iterations", strconv.Itoa(ev.Iterations))
			if ev.Err != "" {
				a.span.SetAttr("error", ev.Err)
			}
			a.span.Finish()
			a.cancel()
		}
		for _, l := range r.listeners {
			l.OnHistoryEvent(ev)
		}
	}
	for _, c := range cmds {
		switch c.kind {
		case cmdDispatch:
			if len(c.tasks) > 0 {
				r.enqueue(c.tasks...)
			}
		case cmdRetry:
			r.arm(c)
		case cmdCancel:
			if c.p == nil {
				r.cancelRun()
			} else {
				r.activity(c.p.Name).cancel()
			}
		case cmdFinish:
			r.finished = true
		}
	}
}

// open publishes an activity's context, span and service forms before its
// first task is enqueued.
func (r *eventRun) open(p *Processor) {
	fn, _ := r.e.registry.Lookup(p.Service)
	batch, _ := r.e.registry.LookupBatch(p.Service)
	sctx, span := telemetry.StartSpan(r.runCtx, "processor:"+p.Name, "engine")
	span.SetAttr("service", p.Service)
	actx, cancel := context.WithCancel(sctx)
	r.mu.Lock()
	r.acts[p.Name] = &running{p: p, fn: fn, batch: batch, inputs: r.d.acts[p.Name].inputs, ctx: actx, cancel: cancel, span: span}
	r.mu.Unlock()
}

func (r *eventRun) enqueue(ts ...Task) {
	// Counted first, so no worker takes a task the gauge has not seen.
	// Enqueue stamps EnqueuedAt and fails only on a closed queue, which
	// closes after the last task has reported.
	r.e.Gauges.enqueued(len(ts))
	_ = r.q.Enqueue(ts...)
}

// arm re-dispatches a task under its next attempt once its backoff has
// passed — or at once when the activity is cancelled, for a worker to drain —
// on a timer of its own: no worker waits out a backoff. The goroutine ends
// before the run can, since the run waits for the retry's report.
func (r *eventRun) arm(c command) {
	t, delay := c.task, backoffDelay(c.p, c.task.Attempt)
	if delay <= 0 {
		r.enqueue(t)
		return
	}
	ctx := r.activity(t.Activity).ctx
	go func() {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
		r.enqueue(t)
	}()
}

// MaxElementBatch bounds how many iteration elements one batch-form
// invocation carries: the element a worker dequeued plus the ready companions
// it leases beside it. Large enough that a name list costs a handful of
// authority round trips, small enough that a pool of workers still shares a
// long iteration and one call stays well inside a batch budget.
const MaxElementBatch = 256

// drain reports a task of a cancelled activity (a sibling element failed, or
// the run did) without a span or a service call.
func (r *eventRun) drain(worker string, t Task, err error) {
	r.e.Gauges.done(1)
	r.send(message{report: report{task: t, worker: worker, err: err}})
}

// send delivers a worker's message to the loop, giving up once the loop has
// exited. The decider finishes a run only after every dispatched task has
// reported, so no report should be outstanding then; the select stays so that
// one the loop will never read — the decider would drop it anyway — cannot
// block its worker, and wg.Wait with it, forever.
func (r *eventRun) send(m message) {
	select {
	case r.msgs <- m:
	case <-r.done:
	}
}

// worker is one pool goroutine: dequeue, lease the ready companions when the
// element's service has a batch form, drain a cancelled activity's tasks or
// invoke, report. It leaves its loop only when the queue is closed and
// drained, so every dequeued task produces exactly one report.
func (r *eventRun) worker(id string) {
	performed := make(chan struct{}, 1) // the loop's signal that a lease is decided
	for {
		t, err := r.q.Dequeue(context.Background())
		if err != nil {
			return
		}
		// open publishes the activity before its first task is enqueued.
		a := r.activity(t.Activity)
		one := [1]Task{t}
		lease := one[:]
		// A retry runs alone through the single form.
		if a.batch != nil && t.Element >= 0 && t.Attempt == 0 && a.ctx.Err() == nil {
			lease = append(lease, r.q.DequeueElements(t.Activity, MaxElementBatch-1)...)
		}
		r.e.Gauges.taken(len(lease))
		switch err := a.ctx.Err(); {
		case err != nil:
			for _, lt := range lease {
				r.drain(id, lt, err)
			}
		case len(lease) > 1:
			r.invokeBatch(id, a, lease, performed)
		default:
			r.invoke(id, a, t)
		}
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

// flight is one service invocation under way: its span and timings.
type flight struct {
	ctx   context.Context
	span  *telemetry.Span
	wait  time.Duration
	start time.Time
}

// begin opens a span named name under the activity and starts timing a
// service invocation of tasks enqueued when t was.
func (r *eventRun) begin(a *running, name string, t Task) flight {
	ctx, sp := telemetry.StartSpan(a.ctx, name, "engine")
	f := flight{ctx: ctx, span: sp, wait: time.Since(t.EnqueuedAt)}
	r.e.metrics.queueWait.Observe(f.wait)
	r.e.metrics.enterFlight()
	f.start = time.Now()
	return f
}

// end records the invocation's exec time and closes its span with the
// attributes the ledger attributes engine time from.
func (r *eventRun) end(f flight, id string, a *running, err error) {
	exec := time.Since(f.start)
	r.e.metrics.exec.Observe(exec)
	r.e.metrics.inFlight.Add(-1)
	if sp := f.span; sp != nil {
		sp.SetAttr("service", a.p.Service)
		sp.SetAttr("queue_wait_us", strconv.FormatInt(f.wait.Microseconds(), 10))
		sp.SetAttr("exec_us", strconv.FormatInt(exec.Microseconds(), 10))
		sp.SetAttr("worker", id)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	f.span.Finish()
}

// dispatched counts a task's first attempt as an invocation; a retry is
// the same invocation again.
func (m *engineMetrics) dispatched(t Task) {
	if t.Attempt > 0 {
		return
	}
	if t.Element >= 0 {
		m.elementsDispatched.Add(1)
	}
	m.invocations.Add(1)
}

// invoke makes one attempt at one task through the service's single form,
// then reports it.
func (r *eventRun) invoke(id string, a *running, t Task) {
	callIn, name := a.inputs, ""
	if t.Element >= 0 {
		callIn, name = elementInputs(a.p, a.inputs, t.Element), elementSpanName(a.p, t.Element)
	} else {
		name = "invoke:" + a.p.Name
	}
	r.e.metrics.dispatched(t)
	f := r.begin(a, name, t)
	var out map[string]Data
	err := f.ctx.Err()
	if err == nil {
		out, err = a.fn(f.ctx, Call{Inputs: callIn, Config: a.p.Config})
	}
	r.end(f, id, a, err)
	r.e.Gauges.done(1)
	r.send(message{report: report{task: t, worker: id, inputs: callIn, outputs: out, err: err}})
}

// invokeBatch runs the leased elements of one activity through the service's
// batch form in a single invocation under the activity's context — one span,
// one queue-wait and one exec sample for the lot — then hands the loop their
// reports as one message, which the decider folds
// report by report, as if each element had been invoked alone, and records
// as one iteration-batch event. A slot that errored is that element's
// attempt 0; whether it is retried is the decider's call. The worker waits
// for the loop to carry out that decision before it dequeues again, so a
// cancel a failed slot issued lands before the worker takes its next lease.
func (r *eventRun) invokeBatch(id string, a *running, lease []Task, performed chan struct{}) {
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
	f := r.begin(a, "batch:"+a.p.Name, lease[0])
	results := a.batch(f.ctx, calls)
	if f.span != nil {
		f.span.SetAttr("elements", strconv.Itoa(n))
	}
	r.end(f, id, a, nil)

	if len(results) != n {
		err := fmt.Errorf("service %q batch form returned %d results for %d calls", a.p.Service, len(results), n)
		results = make([]CallResult, n)
		for i := range results {
			results[i].Err = err
		}
	}
	r.e.Gauges.done(n)
	reports := make([]report, n)
	for i, t := range lease {
		reports[i] = report{task: t, worker: id, inputs: calls[i].Inputs, outputs: results[i].Outputs, err: results[i].Err}
	}
	r.send(message{lease: reports, performed: performed})
	select {
	case <-performed:
	case <-r.done:
	}
}
