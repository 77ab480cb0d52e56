package workflow

import (
	"fmt"
	"reflect"
)

// The decider is the one place a run's state is decided: dataflow values,
// element slots and their retry attempts, failure attribution, report dedup.
// It is single-threaded and pure — no clock, channel, lock, goroutine, random
// source or telemetry (TestDeciderIsPure parses this file). apply folds one
// event, appended or replayed, and is the only way state changes, so a live
// and a resumed run reach the same state from the same events; decide answers
// a resume, a worker report or a batch lease's reports with events to append
// and commands for the driver (eventcore.go). A fresh run is decide(resume)
// over the empty prefix.

// report is one worker's outcome for one attempt of one task.
type report struct {
	task    Task // as dispatched: Activity, Element and Attempt identify the slot
	worker  string
	inputs  map[string]Data // what the call was made with
	outputs map[string]Data
	err     error
	// cancelled marks err as a context's own error (canceled or deadline
	// exceeded): fallout of a cancellation, not the service's verdict.
	cancelled bool
	// ctxErr is the run context's error when the report reached the driver;
	// nil while the run is live.
	ctxErr error
}

// input is what the decider decides on: a resume (the run continues from
// whatever apply has folded), one worker report, or the reports of one
// batch-form invocation — a lease of one activity's elements.
type input struct {
	now    instant
	resume bool
	report report
	lease  []report
}

type commandKind uint8

const (
	// cmdDispatch opens an activity (its context and span) and enqueues its
	// tasks, which may be none.
	cmdDispatch commandKind = iota
	// cmdRetry enqueues task once backoffDelay(p, task.Attempt) has passed.
	cmdRetry
	// cmdCancel cancels an activity's context, or the run's when p is nil,
	// and dispatches the retries armed under it at once.
	cmdCancel
	// cmdFinish closes the run: run-finished is among the decision's events.
	cmdFinish
)

type command struct {
	kind  commandKind
	p     *Processor
	tasks []Task // cmdDispatch
	task  Task   // cmdRetry
}

// slot is an activity's task: an iteration element, or its single call.
type slot struct {
	attempt int
	done    bool
	// batched marks an element that succeeded in the lease being decided: it
	// is done once that lease's iteration-batch event folds.
	batched bool
}

// activity is the decider's state for one processor.
type activity struct {
	p *Processor

	inputs    map[string]Data // the recorded binding
	shapeErr  error
	iterating bool
	slots     []slot
	collected map[string][]Data

	started     bool // activity-started is in the history
	subWorkflow bool // sub-workflow is in the history

	// Live state, reset each time the activity opens in this execution.
	open      bool
	cancelled bool
	start     instant
	pending   int // dispatched slots with no terminal report yet
	fresh     int // successful service invocations (RunResult.Invocations)
	outputs   map[string]Data
	realIdx   int
	cancelIdx int
	realErr   error
	cancelErr error
}

// slotIndex maps a task's element (-1: the single call) to its slot, or -1.
func (a *activity) slotIndex(element int) int {
	if !a.iterating {
		element++
	}
	if element < 0 || element >= len(a.slots) {
		return -1
	}
	return element
}

type decider struct {
	def     *Definition
	runID   string
	inputs  map[string]Data
	fold    HistoryFold
	nextSeq int

	values    map[string]Data // bound link targets, by Endpoint.String()
	remaining map[string]int  // unbound inputs per processor
	// ready lists processors in the order their last input arrived: the
	// zero-input ones, then link order as values were delivered. advance
	// opens them from cursor on.
	ready  []*Processor
	cursor int
	acts   map[string]*activity
	open   int // activities opened and not yet closed
	err    error
	res    *RunResult

	// The input being decided and what it decided; evs and cmds are reused.
	now    instant
	ctxErr error
	evs    []HistoryEvent
	cmds   []command
}

func newDecider(def *Definition, runID string, inputs map[string]Data) *decider {
	d := &decider{
		def: def, runID: runID, inputs: inputs,
		values:    make(map[string]Data, len(def.Links)),
		remaining: make(map[string]int, len(def.Processors)),
		acts:      make(map[string]*activity, len(def.Processors)),
		res:       &RunResult{RunID: runID, Outputs: map[string]Data{}, Invocations: map[string]int{}},
	}
	for name, v := range inputs {
		d.values[Endpoint{Port: name}.String()] = v
	}
	for _, p := range def.Processors {
		d.remaining[p.Name] = len(p.Inputs)
		if len(p.Inputs) == 0 {
			d.ready = append(d.ready, p)
		}
	}
	for _, l := range def.Links {
		if l.Source.Processor == "" {
			d.deliver(l, inputs[l.Source.Port])
		}
	}
	return d
}

// deliver binds a value to a link target; the first binding wins.
func (d *decider) deliver(l Link, v Data) {
	key := l.Target.String()
	if _, dup := d.values[key]; dup {
		return
	}
	d.values[key] = v
	if l.Target.Processor == "" {
		return
	}
	d.remaining[l.Target.Processor]--
	if d.remaining[l.Target.Processor] == 0 {
		p, _ := d.def.Processor(l.Target.Processor) // Validate: it exists
		d.ready = append(d.ready, p)
	}
}

// apply folds one event. A stored prefix is applied in Seq order before the
// first decide; every event decide appends is applied as it is made. Only a
// corrupt prefix returns an error: events for processors the definition
// lacks, history past run-finished, or a completion lacking a linked output.
func (d *decider) apply(ev HistoryEvent) error {
	if d.fold.Finished != nil {
		return fmt.Errorf("workflow: run %q history continues past run-finished", ev.RunID)
	}
	var a *activity
	if ev.Activity != "" {
		if a = d.acts[ev.Activity]; a == nil {
			p, ok := d.def.Processor(ev.Activity)
			if !ok {
				return fmt.Errorf("workflow: history for unknown processor %q", ev.Activity)
			}
			a = &activity{p: p}
			d.acts[p.Name] = a
		}
	}
	fa := d.fold.Apply(ev)
	d.nextSeq = ev.Seq + 1
	if a == nil {
		return nil // a run-level event, or an activity event naming none
	}
	switch ev.Type {
	case HistoryActivityScheduled:
		a.bind(fa.Inputs)
	case HistoryActivityStarted:
		a.started = true
	case HistorySubWorkflow:
		a.subWorkflow = true
	case HistoryRetryBackoff:
		// A resumed run continues the element's attempts: a crash does not
		// refill its retry budget.
		if i := a.slotIndex(ev.Element); i >= 0 && !a.slots[i].done && ev.Attempt > 0 && ev.Attempt <= a.p.Retries {
			a.slots[i].attempt = ev.Attempt
		}
	case HistoryIterationElement:
		a.finishElement(ev.Element, ev.Outputs)
	case HistoryIterationBatch:
		for _, el := range ev.Batch {
			a.finishElement(el.Index, el.Outputs)
		}
	case HistoryActivityCompleted:
		a.open = false
		for _, l := range d.def.Links {
			if l.Source.Processor != a.p.Name {
				continue
			}
			v, ok := fa.Outputs[l.Source.Port]
			if !ok {
				return fmt.Errorf("workflow: history for %q lacks output %q", a.p.Name, l.Source.Port)
			}
			d.deliver(l, v)
		}
	case HistoryActivityFailed:
		// A failed activity stays scheduled: a resumed run re-executes it
		// under the recorded binding, reusing the finished elements, with a
		// fresh retry budget for the rest.
		a.open = false
		for i := range a.slots {
			a.slots[i].attempt = 0
		}
	}
	return nil
}

// bind records an activity's input binding and the slots its shape implies.
func (a *activity) bind(inputs map[string]Data) {
	a.inputs = inputs
	iterating, n, err := iterationShape(a.p, inputs)
	a.iterating, a.shapeErr = iterating, err
	switch {
	case err != nil:
		a.slots = nil
	case iterating:
		a.slots = make([]slot, n)
		a.collected = make(map[string][]Data, len(a.p.Outputs))
		for _, port := range a.p.Outputs {
			a.collected[port.Name] = make([]Data, n)
		}
	default:
		a.slots = make([]slot, 1)
	}
}

// finishElement records an iteration element's outputs and marks its slot
// done. The first record of an index wins; one the iteration lacks is ignored.
func (a *activity) finishElement(element int, outputs map[string]Data) {
	i := a.slotIndex(element)
	if i < 0 || !a.iterating || a.slots[i].done {
		return
	}
	a.slots[i].done, a.slots[i].batched = true, false
	for _, port := range a.p.Outputs {
		a.collected[port.Name][i] = outputs[port.Name]
	}
}

// emit stamps, folds and records the next event. Only run-started names the
// workflow: every later event belongs to the run it opened.
func (d *decider) emit(ev HistoryEvent) {
	ev.Seq, ev.Time, ev.RunID = d.nextSeq, d.now, d.runID
	if ev.Type == HistoryRunStarted {
		ev.WorkflowID, ev.WorkflowName = d.def.ID, d.def.Name
	}
	if err := d.apply(ev); err != nil {
		panic(err) // the decider made an event it cannot fold: a bug
	}
	d.evs = append(d.evs, ev)
}

// decide answers one input; the slices are valid until the next call.
func (d *decider) decide(in input) ([]HistoryEvent, []command) {
	d.evs, d.cmds = d.evs[:0], d.cmds[:0]
	d.now, d.ctxErr = in.now, in.report.ctxErr
	switch {
	case in.resume:
		d.resume()
	case len(in.lease) > 0:
		d.lease(in.lease)
	default:
		d.report(in.report) // a no-op once the run has finished
	}
	if d.fold.Finished != nil {
		return nil, nil
	}
	d.advance()
	if d.open == 0 {
		d.finish()
	}
	return d.evs, d.cmds
}

// resume records which processors the prefix completed and, for a prefix
// that already finished, the run's outcome; otherwise it opens the run.
func (d *decider) resume() {
	for _, p := range d.def.Processors {
		if fa := d.fold.Activity(p.Name); fa != nil && fa.Done {
			d.res.Replayed = append(d.res.Replayed, p.Name)
		}
	}
	fin := d.fold.Finished
	switch {
	case fin == nil:
		if !d.fold.Started {
			d.emit(HistoryEvent{Type: HistoryRunStarted, Inputs: d.inputs, Annotations: d.def.Annotations})
		}
	case fin.Status == "failed":
		d.err = fmt.Errorf("workflow: run %q already failed: %s", d.runID, fin.Err)
	default:
		for _, out := range d.def.Outputs {
			v, ok := fin.Outputs[out.Name]
			if !ok {
				d.err = fmt.Errorf("workflow: finished history for run %q lacks output %q", d.runID, out.Name)
				return
			}
			d.res.Outputs[out.Name] = v
		}
	}
}

// advance opens every ready processor not yet opened or completed, in ready
// order; opening may complete an activity at once and make more ready.
// Nothing opens after a failure.
func (d *decider) advance() {
	for d.err == nil && d.cursor < len(d.ready) {
		p := d.ready[d.cursor]
		d.cursor++
		if a := d.acts[p.Name]; a != nil && a.open {
			continue
		}
		if fa := d.fold.Activity(p.Name); fa != nil && fa.Done {
			continue
		}
		d.openActivity(p)
	}
}

// openActivity schedules p (unless its history already did) and dispatches
// the slots the history does not record as finished.
func (d *decider) openActivity(p *Processor) {
	if fa := d.fold.Activity(p.Name); fa == nil || !fa.Scheduled {
		binding := make(map[string]Data, len(p.Inputs))
		for _, in := range p.Inputs {
			binding[in.Name] = d.values[Endpoint{Processor: p.Name, Port: in.Name}.String()]
		}
		ev := HistoryEvent{
			Type: HistoryActivityScheduled, Activity: p.Name, Service: p.Service,
			Inputs: binding, Annotations: p.Annotations, Elements: -1,
		}
		if iterating, n, err := iterationShape(p, binding); err == nil && iterating {
			ev.Elements = n
		}
		d.emit(ev)
	}
	a := d.acts[p.Name]
	if IsNestedService(p.Service) && !a.subWorkflow {
		d.emit(HistoryEvent{Type: HistorySubWorkflow, Activity: p.Name, Service: p.Service})
	}
	a.open, a.cancelled, a.start, a.fresh, a.outputs = true, false, d.now, 0, nil
	a.realIdx, a.cancelIdx, a.realErr, a.cancelErr = -1, -1, nil, nil
	d.open++
	// The missing slots go out in one command, so the worker that takes the
	// first finds its companions already queued.
	tasks := make([]Task, 0, len(a.slots))
	for i := range a.slots {
		if !a.slots[i].done {
			tasks = append(tasks, d.task(a, i))
		}
	}
	a.pending = len(tasks)
	d.cmds = append(d.cmds, command{kind: cmdDispatch, p: p, tasks: tasks})
	switch {
	case a.shapeErr != nil:
		d.failActivity(a, 0, a.shapeErr)
	case a.pending == 0:
		d.settle(a) // every element finished in the prefix, or none to run
	}
}

func (d *decider) task(a *activity, i int) Task {
	element := i
	if !a.iterating {
		element = -1
	}
	return Task{Activity: a.p.Name, Element: element, Attempt: a.slots[i].attempt}
}

// report folds one worker report and settles its activity once every slot
// has reported.
func (d *decider) report(r report) {
	if a := d.take(r, nil); a != nil && a.pending == 0 {
		d.settle(a)
	}
}

// lease folds the reports of one batch-form invocation in one decision, each
// exactly as report folds it, except that the elements that succeeded are
// recorded together: one iteration-batch event, appended before the activity
// settles. A lease is one activity's elements; a report of another activity
// is folded alone.
func (d *decider) lease(rs []report) {
	name := rs[0].task.Activity
	var a *activity
	batch := make([]ElementTrace, 0, len(rs))
	for _, r := range rs {
		d.ctxErr = r.ctxErr
		if r.task.Activity != name {
			d.report(r)
		} else if got := d.take(r, &batch); got != nil {
			a = got
		}
	}
	if len(batch) > 0 {
		d.emit(HistoryEvent{Type: HistoryIterationBatch, Activity: name, Worker: rs[0].worker, Batch: batch})
	}
	if a != nil && a.pending == 0 {
		d.settle(a)
	}
}

// take folds one report and returns its activity, one pending slot fewer —
// or nil when the report armed a retry or changed nothing. A report for an
// activity that is not open, a slot already finished (or succeeded in the
// lease being folded), or an attempt other than the slot's current one is
// stale or a duplicate and changes nothing: the first report of an attempt
// wins. The engine's pool reports each dispatched attempt exactly once, so
// this is safety code, pinned by FuzzDecide and TestDecide. An element that
// succeeds goes into batch when the report is a lease's, and is recorded as
// an iteration-element event of its own otherwise.
func (d *decider) take(r report, batch *[]ElementTrace) *activity {
	a := d.acts[r.task.Activity]
	if a == nil || !a.open {
		return nil
	}
	i := a.slotIndex(r.task.Element)
	if i < 0 || a.slots[i].done || a.slots[i].batched || a.slots[i].attempt != r.task.Attempt {
		return nil
	}
	if !a.started {
		d.emit(HistoryEvent{
			Type: HistoryActivityStarted, Activity: a.p.Name,
			Service: a.p.Service, Worker: r.worker, Element: -1,
		})
	}
	err := r.err
	if err == nil {
		// A missing declared output breaks the service's contract; it is
		// not retried.
		err = checkOutputs(a.p, r.outputs)
	} else if r.ctxErr == nil && !a.cancelled {
		// A cancellation is never retried.
		if a.slots[i].attempt < a.p.Retries {
			d.emit(HistoryEvent{
				Type: HistoryRetryBackoff, Activity: a.p.Name, Worker: r.worker,
				Element: r.task.Element, Attempt: a.slots[i].attempt + 1,
			})
			d.cmds = append(d.cmds, command{kind: cmdRetry, p: a.p, task: d.task(a, i)})
			return nil
		}
		if a.p.Retries > 0 {
			err = fmt.Errorf("after %d attempts: %w", a.p.Retries+1, err)
		}
	}
	a.pending--
	switch {
	case err != nil:
		a.slots[i].done = true
		idx := max(r.task.Element, 0)
		if r.cancelled {
			if a.cancelIdx == -1 || idx < a.cancelIdx {
				a.cancelIdx, a.cancelErr = idx, err
			}
		} else if a.realIdx == -1 || idx < a.realIdx {
			a.realIdx, a.realErr = idx, err
		}
		if !a.cancelled {
			a.cancelled = true
			d.cmds = append(d.cmds, command{kind: cmdCancel, p: a.p})
		}
	case a.iterating && batch != nil:
		a.slots[i].batched = true
		*batch = append(*batch, ElementTrace{Index: r.task.Element, Inputs: r.inputs, Outputs: r.outputs})
		a.fresh++
	case a.iterating:
		d.emit(HistoryEvent{
			Type: HistoryIterationElement, Activity: a.p.Name, Worker: r.worker,
			Element: r.task.Element, Inputs: r.inputs, Outputs: r.outputs,
		})
		a.fresh++
	default:
		a.slots[i].done = true
		a.outputs = r.outputs
		a.fresh++
	}
	return a
}

// settle closes an activity whose slots have all reported. Failure
// precedence is the lowest real error index, then a run cancellation, then
// the lowest cancellation fallout — an aborted sibling never masks the root
// cause. Success appends the completed event, whose fold delivers the
// outputs downstream.
func (d *decider) settle(a *activity) {
	switch {
	case a.realIdx >= 0:
		d.failElement(a, a.realIdx, a.realErr)
		return
	case a.iterating && d.ctxErr != nil:
		d.failActivity(a, max(a.cancelIdx, 0), d.ctxErr)
		return
	case a.cancelIdx >= 0:
		d.failElement(a, a.cancelIdx, a.cancelErr)
		return
	}
	iterations, outputs := 1, a.outputs
	if a.iterating {
		iterations, outputs = len(a.slots), collectOutputs(a.collected)
		// The element events already hold the collected outputs: when the
		// fold rebuilds exactly these from them, the completion omits them.
		if reflect.DeepEqual(d.fold.Activity(a.p.Name).elementOutputs(), outputs) {
			outputs = nil
		}
	}
	d.emit(HistoryEvent{
		Type: HistoryActivityCompleted, Activity: a.p.Name, Outputs: outputs,
		Iterations: iterations, Duration: d.now.Sub(a.start),
	})
	d.res.Invocations[a.p.Name] += a.fresh
	d.open--
}

// failElement fails an activity with element i's error (its only call's when
// it does not iterate).
func (d *decider) failElement(a *activity, i int, err error) {
	if a.iterating {
		err = fmt.Errorf("iteration %d: %w", i, err)
	}
	d.failActivity(a, i+1, err)
}

// failActivity closes an activity with an error; the first failure fails
// the run and cancels it.
func (d *decider) failActivity(a *activity, iterations int, err error) {
	d.emit(HistoryEvent{
		Type: HistoryActivityFailed, Activity: a.p.Name, Iterations: iterations,
		Duration: d.now.Sub(a.start), Err: err.Error(),
	})
	if d.err == nil {
		d.err = fmt.Errorf("workflow: processor %q: %w", a.p.Name, err)
		d.cmds = append(d.cmds, command{kind: cmdCancel})
	}
	d.open--
}

// finish appends run-finished once no activity is open.
func (d *decider) finish() {
	if d.err == nil {
		for _, out := range d.def.Outputs {
			v, ok := d.values[Endpoint{Port: out.Name}.String()]
			if !ok {
				d.err = fmt.Errorf("workflow: output %q was never produced", out.Name)
				break
			}
			d.res.Outputs[out.Name] = v
		}
	}
	if d.err != nil {
		d.emit(HistoryEvent{Type: HistoryRunFinished, Status: "failed", Err: d.err.Error()})
	} else {
		d.emit(HistoryEvent{Type: HistoryRunFinished, Status: "completed", Outputs: d.res.Outputs})
	}
	d.cmds = append(d.cmds, command{kind: cmdFinish})
}
