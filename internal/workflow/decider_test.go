package workflow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// decideNow is the clock of every decider test: a constant, so a history is
// a function of the inputs alone.
var decideNow = time.Date(2014, 3, 31, 12, 0, 0, 0, time.UTC)

type outcome int

const (
	succeed outcome = iota // the fake service's outputs
	fail                   // a service error
	fallout                // the context's own error: cancellation fallout
	missing                // success without the declared outputs
	again                  // the slot's previous report, delivered once more
	extra                  // the fake's outputs plus a port the processor does not declare
)

// step reports one outstanding task: element el of activity act (-1 for a
// non-iterating call), at whatever attempt the decider dispatched.
type step struct {
	act string
	el  int
	do  outcome
}

// sim drives a decider by hand, without a goroutine or a clock: it records
// every event and command as one line and keeps the tasks the commands put
// out.
type sim struct {
	tb   testing.TB
	d    *decider
	hist []HistoryEvent
	fold HistoryFold // of hist: what a reader of the stored events sees
	log  []string
	out  map[taskKey]Task   // dispatched or re-armed, not yet reported
	sent map[taskKey]report // the last report per task
}

// taskKey names a task of the run a sim drives: one element of an activity
// (-1 for a non-iterating call), whatever its attempt.
type taskKey struct {
	act string
	el  int
}

func keyOf(t Task) taskKey { return taskKey{t.Activity, t.Element} }

func newSim(tb testing.TB, def *Definition, inputs map[string]Data, prefix []HistoryEvent) *sim {
	s := &sim{tb: tb, d: newDecider(def, "run-t", inputs), out: map[taskKey]Task{}, sent: map[taskKey]report{}}
	for _, ev := range prefix {
		if err := s.d.apply(ev); err != nil {
			tb.Fatalf("apply %+v: %v", ev, err)
		}
		s.fold.Apply(ev)
	}
	s.hist = append(s.hist, prefix...)
	s.decide(input{resume: true})
	return s
}

func (s *sim) decide(in input) {
	in.now = decideNow
	evs, cmds := s.d.decide(in)
	for _, ev := range evs {
		s.hist = append(s.hist, ev)
		s.log = append(s.log, renderEvent(ev, s.fold.Apply(ev)))
	}
	for _, c := range cmds {
		switch c.kind {
		case cmdDispatch:
			var els []string
			for _, t := range c.tasks {
				s.out[keyOf(t)] = t
				els = append(els, strconv.Itoa(t.Element))
			}
			s.log = append(s.log, fmt.Sprintf("dispatch %s [%s]", c.p.Name, strings.Join(els, " ")))
		case cmdRetry:
			s.out[keyOf(c.task)] = c.task
			s.log = append(s.log, fmt.Sprintf("retry %s#%d@%d", c.task.Activity, c.task.Element, c.task.Attempt))
		case cmdCancel:
			if c.p == nil {
				s.log = append(s.log, "cancel run")
			} else {
				s.log = append(s.log, "cancel "+c.p.Name)
			}
		case cmdFinish:
			s.log = append(s.log, "finish")
		}
	}
}

// fake is every test service: each declared output names the processor and
// the inputs it was called with.
func fake(p *Processor, in map[string]Data) map[string]Data {
	vals := make([]string, 0, len(in))
	for _, v := range in {
		vals = append(vals, v.String())
	}
	sort.Strings(vals)
	out := map[string]Data{}
	for _, port := range p.Outputs {
		out[port.Name] = Scalar(p.Name + ":" + strings.Join(vals, ","))
	}
	return out
}

func (s *sim) report(st step) {
	if st.do == again {
		s.decide(input{report: s.sent[taskKey{st.act, st.el}]})
		return
	}
	s.decide(input{report: s.build(st)})
}

// lease reports the steps together, as one batch-form invocation does; a
// step that names an element twice repeats its report.
func (s *sim) lease(sts []step) {
	rs := make([]report, len(sts))
	for i, st := range sts {
		if st.do == again {
			rs[i] = s.sent[taskKey{st.act, st.el}]
		} else {
			rs[i] = s.build(st)
		}
	}
	s.decide(input{lease: rs})
}

// build makes the report of one outstanding task and takes the task out.
func (s *sim) build(st step) report {
	id := taskKey{st.act, st.el}
	t, found := s.out[id]
	if !found {
		s.tb.Fatalf("no outstanding task %s#%d", st.act, st.el)
	}
	delete(s.out, id)
	a := s.d.acts[st.act]
	r := report{task: t, worker: "w1", inputs: a.inputs}
	if t.Element >= 0 {
		r.inputs = elementInputs(a.p, a.inputs, t.Element)
	}
	switch st.do {
	case succeed:
		r.outputs = fake(a.p, r.inputs)
	case fail:
		r.err = errors.New("boom")
	case fallout:
		r.err, r.cancelled = context.Canceled, true
	case missing:
		r.outputs = map[string]Data{}
	case extra:
		r.outputs = fake(a.p, r.inputs)
		r.outputs["z"] = Scalar("undeclared")
	}
	s.sent[id] = r
	return r
}

// renderEvent renders one event; a completion shows the outputs its fold fa
// holds, marked "(folded)" when the event omits them and the fold rebuilt
// them from the activity's elements.
func renderEvent(ev HistoryEvent, fa *ActivityFold) string {
	switch ev.Type {
	case HistoryActivityScheduled:
		if ev.Elements >= 0 {
			return fmt.Sprintf("scheduled %s x%d", ev.Activity, ev.Elements)
		}
		return "scheduled " + ev.Activity
	case HistoryActivityStarted:
		return "started " + ev.Activity
	case HistoryIterationElement:
		return fmt.Sprintf("element %s#%d", ev.Activity, ev.Element)
	case HistoryIterationBatch:
		els := make([]string, len(ev.Batch))
		for i, el := range ev.Batch {
			els[i] = strconv.Itoa(el.Index)
		}
		return fmt.Sprintf("batch %s [%s]", ev.Activity, strings.Join(els, " "))
	case HistoryRetryBackoff:
		return fmt.Sprintf("retry-backoff %s#%d@%d", ev.Activity, ev.Element, ev.Attempt)
	case HistoryActivityCompleted:
		if len(ev.Outputs) == 0 {
			return fmt.Sprintf("completed %s (folded) %s", ev.Activity, renderData(fa.Outputs))
		}
		return fmt.Sprintf("completed %s %s", ev.Activity, renderData(fa.Outputs))
	case HistoryActivityFailed:
		return fmt.Sprintf("failed %s (%d): %s", ev.Activity, ev.Iterations, ev.Err)
	case HistoryRunFinished:
		if ev.Status == "failed" {
			return "finished failed: " + ev.Err
		}
		return "finished completed " + renderData(ev.Outputs)
	}
	return string(ev.Type)
}

func renderData(m map[string]Data) string {
	var parts []string
	for k, v := range m {
		parts = append(parts, k+"="+v.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// gatherDef iterates Resolve over a name list and hands the collected list
// to Summarize, which consumes it whole.
func gatherDef() *Definition {
	return &Definition{
		ID: "wf-gather", Name: "gather",
		Inputs:  []Port{{Name: "names", Depth: 1}},
		Outputs: []Port{{Name: "summary"}},
		Processors: []*Processor{
			{Name: "Resolve", Service: "svc", Inputs: []Port{{Name: "name"}}, Outputs: []Port{{Name: "result"}}},
			{Name: "Summarize", Service: "svc", Inputs: []Port{{Name: "results", Depth: 1}}, Outputs: []Port{{Name: "summary"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "names"}, Target: Endpoint{Processor: "Resolve", Port: "name"}},
			{Source: Endpoint{Processor: "Resolve", Port: "result"}, Target: Endpoint{Processor: "Summarize", Port: "results"}},
			{Source: Endpoint{Processor: "Summarize", Port: "summary"}, Target: Endpoint{Port: "summary"}},
		},
	}
}

func items(vals ...string) Data {
	out := make([]Data, len(vals))
	for i, v := range vals {
		out[i] = Scalar(v)
	}
	return List(out...)
}

// TestDecide pins the decider's answers, input by input, with no worker,
// goroutine or clock: which events a report appends, which commands it
// issues, and how a resume continues from a stored prefix.
func TestDecide(t *testing.T) {
	linear := linearDef()
	retrying := func(d *Definition, retries int) *Definition {
		d.Processors[0].Retries = retries
		return d
	}
	abc := map[string]Data{"in": items("a", "b", "c")}
	prefix := func(evs ...HistoryEvent) []HistoryEvent {
		for i := range evs {
			evs[i].Seq, evs[i].RunID = i, "run-t"
		}
		return evs
	}
	started := HistoryEvent{Type: HistoryRunStarted}
	schedA := HistoryEvent{Type: HistoryActivityScheduled, Activity: "A", Service: "work", Inputs: map[string]Data{"x": abc["in"]}, Elements: 3}
	startA := HistoryEvent{Type: HistoryActivityStarted, Activity: "A", Element: -1}
	elem := func(i int, v string) HistoryEvent {
		return HistoryEvent{Type: HistoryIterationElement, Activity: "A", Element: i,
			Inputs: map[string]Data{"x": Scalar(v)}, Outputs: map[string]Data{"y": Scalar("A:" + v)}}
	}

	cases := []struct {
		name        string
		def         *Definition
		inputs      map[string]Data
		prefix      []HistoryEvent
		steps       []step
		want        []string
		err         string // substring of the run's error; "" = success
		invocations map[string]int
	}{{
		name: "fresh linear run", def: linear, inputs: map[string]Data{"in": Scalar("hello")},
		steps: []step{{"A", -1, succeed}, {"B", -1, succeed}},
		want: []string{
			"run-started", "scheduled A", "dispatch A [-1]",
			"started A", "completed A y=A:hello", "scheduled B", "dispatch B [-1]",
			"started B", "completed B y=B:A:hello", "finished completed out=B:A:hello", "finish",
		},
		invocations: map[string]int{"A": 1, "B": 1},
	}, {
		name: "out-of-order element reports", def: iterDef(0), inputs: abc,
		steps: []step{{"A", 2, succeed}, {"A", 0, succeed}, {"A", 1, succeed}},
		want: []string{
			"run-started", "scheduled A x3", "dispatch A [0 1 2]",
			"started A", "element A#2", "element A#0", "element A#1",
			"completed A (folded) y=[A:a, A:b, A:c]", "finished completed out=[A:a, A:b, A:c]", "finish",
		},
		invocations: map[string]int{"A": 3},
	}, {
		name: "lowest real failure beside cancellation fallout", def: iterDef(0),
		inputs: map[string]Data{"in": items("a", "b", "c", "d", "e", "f")},
		steps:  []step{{"A", 4, fail}, {"A", 1, fallout}, {"A", 5, fail}, {"A", 0, succeed}, {"A", 2, fallout}, {"A", 3, fallout}},
		want: []string{
			"run-started", "scheduled A x6", "dispatch A [0 1 2 3 4 5]",
			"started A", "cancel A",
			"element A#0",
			"failed A (5): iteration 4: boom", `finished failed: workflow: processor "A": iteration 4: boom`, "cancel run", "finish",
		},
		err: "iteration 4: boom",
	}, {
		name: "retry armed then succeeding", def: iterDef(2), inputs: map[string]Data{"in": items("a", "b")},
		steps: []step{{"A", 0, fail}, {"A", 1, succeed}, {"A", 0, succeed}},
		want: []string{
			"run-started", "scheduled A x2", "dispatch A [0 1]",
			"started A", "retry-backoff A#0@1", "retry A#0@1",
			"element A#1",
			"element A#0", "completed A (folded) y=[A:a, A:b]", "finished completed out=[A:a, A:b]", "finish",
		},
		invocations: map[string]int{"A": 2},
	}, {
		name: "retries exhausted", def: retrying(linearDef(), 1), inputs: map[string]Data{"in": Scalar("v")},
		steps: []step{{"A", -1, fail}, {"A", -1, fail}},
		want: []string{
			"run-started", "scheduled A", "dispatch A [-1]",
			"started A", "retry-backoff A#-1@1", "retry A#-1@1",
			"failed A (1): after 2 attempts: boom", `finished failed: workflow: processor "A": after 2 attempts: boom`,
			"cancel A", "cancel run", "finish",
		},
		err: "after 2 attempts: boom",
	}, {
		name: "stale and duplicate reports dropped", def: iterDef(1), inputs: map[string]Data{"in": items("a", "b")},
		steps: []step{{"A", 0, succeed}, {"A", 0, again}, {"A", 1, fail}, {"A", 1, again}, {"A", 1, succeed}},
		want: []string{
			"run-started", "scheduled A x2", "dispatch A [0 1]",
			"started A", "element A#0",
			"retry-backoff A#1@1", "retry A#1@1",
			"element A#1", "completed A (folded) y=[A:a, A:b]", "finished completed out=[A:a, A:b]", "finish",
		},
	}, {
		name: "missing declared output", def: linear, inputs: map[string]Data{"in": Scalar("v")},
		steps: []step{{"A", -1, missing}},
		want: []string{
			"run-started", "scheduled A", "dispatch A [-1]",
			`started A`, `failed A (1): service "svcA" omitted output "y"`,
			`finished failed: workflow: processor "A": service "svcA" omitted output "y"`,
			"cancel A", "cancel run", "finish",
		},
		err: "omitted output",
	}, {
		name: "iterate then gather", def: gatherDef(), inputs: map[string]Data{"names": items("a", "b", "c")},
		steps: []step{{"Resolve", 0, succeed}, {"Resolve", 1, succeed}, {"Resolve", 2, succeed}, {"Summarize", -1, succeed}},
		want: []string{
			"run-started", "scheduled Resolve x3", "dispatch Resolve [0 1 2]",
			"started Resolve", "element Resolve#0", "element Resolve#1", "element Resolve#2",
			"completed Resolve (folded) result=[Resolve:a, Resolve:b, Resolve:c]", "scheduled Summarize", "dispatch Summarize [-1]",
			"started Summarize", "completed Summarize summary=Summarize:[Resolve:a, Resolve:b, Resolve:c]",
			"finished completed summary=Summarize:[Resolve:a, Resolve:b, Resolve:c]", "finish",
		},
		invocations: map[string]int{"Resolve": 3, "Summarize": 1},
	}, {
		// The elements hold a port the collected outputs lack, so they do not
		// determine the completion: it stores its outputs.
		name: "undeclared element output", def: iterDef(0), inputs: map[string]Data{"in": items("a", "b")},
		steps: []step{{"A", 0, extra}, {"A", 1, extra}},
		want: []string{
			"run-started", "scheduled A x2", "dispatch A [0 1]",
			"started A", "element A#0", "element A#1",
			"completed A y=[A:a, A:b]", "finished completed out=[A:a, A:b]", "finish",
		},
		invocations: map[string]int{"A": 2},
	}, {
		// No element names the ports: the completion stores its empty lists.
		name: "zero-element iteration", def: iterDef(0), inputs: map[string]Data{"in": items()},
		want: []string{
			"run-started", "scheduled A x0", "completed A y=[]", "finished completed out=[]",
			"dispatch A []", "finish",
		},
	}, {
		name: "resume mid-iteration", def: iterDef(0), inputs: abc,
		prefix: prefix(started, schedA, startA, elem(1, "b")),
		steps:  []step{{"A", 0, succeed}, {"A", 2, succeed}},
		want: []string{
			"dispatch A [0 2]",
			"element A#0", "element A#2", "completed A (folded) y=[A:a, A:b, A:c]", "finished completed out=[A:a, A:b, A:c]", "finish",
		},
		invocations: map[string]int{"A": 2},
	}, {
		name: "resume just after activity-failed", def: iterDef(0), inputs: abc,
		prefix: prefix(started, schedA, startA, elem(0, "a"),
			HistoryEvent{Type: HistoryActivityFailed, Activity: "A", Iterations: 2, Err: "iteration 1: boom"}),
		steps: []step{{"A", 2, succeed}, {"A", 1, succeed}},
		want: []string{
			"dispatch A [1 2]",
			"element A#2", "element A#1", "completed A (folded) y=[A:a, A:b, A:c]", "finished completed out=[A:a, A:b, A:c]", "finish",
		},
	}, {
		name: "resume at run-finished", def: iterDef(0), inputs: abc,
		prefix: prefix(started, schedA, startA, elem(0, "a"), elem(1, "b"), elem(2, "c"),
			HistoryEvent{Type: HistoryActivityCompleted, Activity: "A", Iterations: 3, Outputs: map[string]Data{"y": items("A:a", "A:b", "A:c")}},
			HistoryEvent{Type: HistoryRunFinished, Status: "completed", Outputs: map[string]Data{"out": items("A:a", "A:b", "A:c")}}),
		want:        nil,
		invocations: map[string]int{},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSim(t, tc.def, tc.inputs, tc.prefix)
			for _, st := range tc.steps {
				s.report(st)
			}
			if !reflect.DeepEqual(s.log, tc.want) {
				t.Fatalf("decisions:\n  %s\nwant:\n  %s", strings.Join(s.log, "\n  "), strings.Join(tc.want, "\n  "))
			}
			for i, ev := range s.hist {
				if ev.Seq != i {
					t.Fatalf("event %d has seq %d", i, ev.Seq)
				}
			}
			if len(s.out) != 0 {
				t.Errorf("tasks still outstanding: %v", s.out)
			}
			res, err := s.d.res, s.d.err
			if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("run error %v, want %q", err, tc.err)
			}
			if tc.err == "" && res.Outputs[tc.def.Outputs[0].Name].String() == "" {
				t.Errorf("no output in %+v", res)
			}
			if tc.invocations != nil && !reflect.DeepEqual(res.Invocations, tc.invocations) {
				t.Errorf("invocations %v, want %v", res.Invocations, tc.invocations)
			}
		})
	}
}

// TestDecideLease pins how the decider folds the reports of one batch-form
// invocation: each as a lone report would be folded — retries, failure
// precedence, cancellation, duplicates — but the elements that succeeded are
// recorded as one iteration-batch event, appended before the activity
// settles, and a resume re-dispatches only the elements no event records.
func TestDecideLease(t *testing.T) {
	abc := map[string]Data{"in": items("a", "b", "c")}
	cases := []struct {
		name   string
		def    *Definition
		prefix []HistoryEvent
		leases [][]step
		steps  []step // after the leases
		want   []string
		err    string
	}{{
		name:   "one lease, one event",
		def:    iterDef(0),
		leases: [][]step{{{"A", 0, succeed}, {"A", 1, succeed}, {"A", 2, succeed}}},
		want: []string{
			"run-started", "scheduled A x3", "dispatch A [0 1 2]",
			"started A", "batch A [0 1 2]", "completed A (folded) y=[A:a, A:b, A:c]",
			"finished completed out=[A:a, A:b, A:c]", "finish",
		},
	}, {
		name:   "a failed slot retries alone",
		def:    iterDef(1),
		leases: [][]step{{{"A", 0, succeed}, {"A", 1, fail}, {"A", 2, succeed}}},
		steps:  []step{{"A", 1, succeed}},
		want: []string{
			"run-started", "scheduled A x3", "dispatch A [0 1 2]",
			"started A", "retry-backoff A#1@1", "batch A [0 2]", "retry A#1@1",
			"element A#1", "completed A (folded) y=[A:a, A:b, A:c]", "finished completed out=[A:a, A:b, A:c]", "finish",
		},
	}, {
		name:   "the batch precedes the failure it settles with",
		def:    iterDef(0),
		leases: [][]step{{{"A", 2, fail}, {"A", 0, succeed}, {"A", 1, fallout}}},
		want: []string{
			"run-started", "scheduled A x3", "dispatch A [0 1 2]",
			"started A", "batch A [0]", "failed A (3): iteration 2: boom",
			`finished failed: workflow: processor "A": iteration 2: boom`, "cancel A", "cancel run", "finish",
		},
		err: "iteration 2: boom",
	}, {
		name: "duplicates inside and across leases dropped",
		def:  iterDef(0),
		leases: [][]step{
			{{"A", 0, succeed}, {"A", 0, again}},
			{{"A", 0, again}, {"A", 1, succeed}, {"A", 2, succeed}, {"A", 2, again}},
		},
		want: []string{
			"run-started", "scheduled A x3", "dispatch A [0 1 2]",
			"started A", "batch A [0]",
			"batch A [1 2]", "completed A (folded) y=[A:a, A:b, A:c]", "finished completed out=[A:a, A:b, A:c]", "finish",
		},
	}, {
		name: "resume past a batch",
		def:  iterDef(0),
		prefix: []HistoryEvent{
			{Type: HistoryRunStarted},
			{Type: HistoryActivityScheduled, Activity: "A", Service: "work", Inputs: map[string]Data{"x": abc["in"]}, Elements: 3},
			{Type: HistoryActivityStarted, Activity: "A", Element: -1},
			{Type: HistoryIterationBatch, Activity: "A", Batch: []ElementTrace{
				{Index: 2, Inputs: map[string]Data{"x": Scalar("c")}, Outputs: map[string]Data{"y": Scalar("A:c")}},
				{Index: 0, Inputs: map[string]Data{"x": Scalar("a")}, Outputs: map[string]Data{"y": Scalar("A:a")}},
			}},
		},
		steps: []step{{"A", 1, succeed}},
		want: []string{
			"dispatch A [1]",
			"element A#1", "completed A (folded) y=[A:a, A:b, A:c]", "finished completed out=[A:a, A:b, A:c]", "finish",
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := range tc.prefix {
				tc.prefix[i].Seq, tc.prefix[i].RunID = i, "run-t"
			}
			s := newSim(t, tc.def, abc, tc.prefix)
			for _, l := range tc.leases {
				s.lease(l)
			}
			for _, st := range tc.steps {
				s.report(st)
			}
			if !reflect.DeepEqual(s.log, tc.want) {
				t.Fatalf("decisions:\n  %s\nwant:\n  %s", strings.Join(s.log, "\n  "), strings.Join(tc.want, "\n  "))
			}
			for i, ev := range s.hist {
				if ev.Seq != i {
					t.Fatalf("event %d has seq %d", i, ev.Seq)
				}
			}
			if len(s.out) != 0 {
				t.Errorf("tasks still outstanding: %v", s.out)
			}
			if err := s.d.err; tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("run error %v, want %q", err, tc.err)
			}
		})
	}
}

// TestDeciderIsPure keeps decider.go free of what would make a decision
// depend on anything but its inputs: the clock, locks, contexts, randomness,
// telemetry, goroutines and channels.
func TestDeciderIsPure(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "decider.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"time": true, "sync": true, "context": true, "math/rand": true, "repro/internal/telemetry": true}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if banned[path] || strings.HasPrefix(path, "sync/") || strings.HasPrefix(path, "math/rand/") {
			t.Errorf("decider.go imports %q", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt:
			t.Errorf("%s: go statement in the decider", fset.Position(n.Pos()))
		case *ast.ChanType:
			t.Errorf("%s: channel type in the decider", fset.Position(n.Pos()))
		}
		return true
	})
}

// TestDecideAllocs pins what folding one element report costs the decider:
// nothing, on average (AllocsPerRun's integer mean). The report's maps are the
// worker's and the event is stamped into a reused buffer; what is left is the
// fold's list of element traces, which grows by doubling.
func TestDecideAllocs(t *testing.T) {
	const n = 4096
	in := make([]string, n)
	for i := range in {
		in[i] = "v" + strconv.Itoa(i)
	}
	s := newSim(t, iterDef(0), map[string]Data{"in": items(in...)}, nil)
	a := s.d.acts["A"]
	reports := make([]report, n)
	for i := range reports {
		x := elementInputs(a.p, a.inputs, i)
		reports[i] = report{task: s.out[taskKey{"A", i}], worker: "w1", inputs: x, outputs: fake(a.p, x)}
	}
	next := 0
	allocs := testing.AllocsPerRun(n-2, func() {
		s.d.decide(input{now: decideNow, report: reports[next]})
		next++
	})
	if next != n-1 {
		t.Fatalf("ran %d reports", next)
	}
	if allocs > 0 {
		t.Fatalf("%.0f allocations per element report, want 0", allocs)
	}
}

// TestDecideLeaseAllocs pins what folding a whole lease of MaxElementBatch
// element reports costs the decider: a constant, whatever the lease's size —
// the iteration-batch event's own slice of traces, plus the fold's list of
// element traces, which grows by doubling.
func TestDecideLeaseAllocs(t *testing.T) {
	const leases = 16
	const n = leases * MaxElementBatch
	in := make([]string, n)
	for i := range in {
		in[i] = "v" + strconv.Itoa(i)
	}
	s := newSim(t, iterDef(0), map[string]Data{"in": items(in...)}, nil)
	a := s.d.acts["A"]
	inputs := make([]input, leases)
	for l := range inputs {
		rs := make([]report, MaxElementBatch)
		for j := range rs {
			i := l*MaxElementBatch + j
			x := elementInputs(a.p, a.inputs, i)
			rs[j] = report{task: s.out[taskKey{"A", i}], worker: "w1", inputs: x, outputs: fake(a.p, x)}
		}
		inputs[l] = input{now: decideNow, lease: rs}
	}
	next := 0
	// The last lease is left out: it settles the activity and finishes the
	// run, which is not the lease's cost.
	allocs := testing.AllocsPerRun(leases-2, func() {
		evs, _ := s.d.decide(inputs[next])
		if last := evs[len(evs)-1]; last.Type != HistoryIterationBatch || len(last.Batch) != MaxElementBatch {
			t.Fatalf("lease %d decided %+v", next, evs)
		}
		next++
	})
	if next != leases-1 {
		t.Fatalf("ran %d leases", next)
	}
	if allocs > 2 {
		t.Fatalf("%.0f allocations per lease of %d elements, want at most 2", allocs, MaxElementBatch)
	}
}

// decideScript drives a decider over the iterating linear pipeline with every
// choice read from data — the processors' retry budgets, which outstanding
// task reports next, its outcome, whether it leases up to k more outstanding
// first attempts of its activity into one batch input, duplicate deliveries
// of earlier inputs — and checks what must hold of any history it makes:
// dense sequence numbers, one run-finished and last, no element index
// recorded twice across iteration-element and iteration-batch events, no
// wait on nothing, every completion that omits its outputs folding back, from
// the stored encoding, to exactly the lists the decider collected (an
// undeclared element port makes a completion store them instead), and that
// resuming at every cut before the first activity-failed and feeding the
// same inputs again reproduces the rest of the history
// (Time and Worker aside). A cut past activity-failed re-executes the failed
// activity (TestResumePastFailedActivity), so it continues differently.
func decideScript(tb testing.TB, data []byte) []HistoryEvent {
	if len(data) > 512 {
		data = data[:512] // the resume check is quadratic in the inputs
	}
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	def := linearDef()
	def.Processors[0].Retries, def.Processors[1].Retries = next(3), next(3)
	inputs := map[string]Data{"in": items("a", "b", "c")}
	s := &sim{tb: tb, d: newDecider(def, "run-fuzz", inputs), out: map[taskKey]Task{}, sent: map[taskKey]report{}}
	s.decide(input{resume: true})
	var ins []input
	runCancelled := false
	// take makes the report of an outstanding task, with a byte-chosen outcome.
	take := func(t Task, worker string) report {
		delete(s.out, keyOf(t))
		a := s.d.acts[t.Activity]
		r := report{task: t, worker: worker, inputs: elementInputs(a.p, a.inputs, t.Element)}
		switch next(9) { // exhausted data reads 0: success
		case 5:
			r.err = errors.New("boom")
		case 6:
			r.err, r.cancelled = context.Canceled, true
		case 7:
			r.outputs = map[string]Data{}
		case 8:
			r.outputs = fake(a.p, r.inputs)
			r.outputs["z"] = Scalar("undeclared")
		default:
			r.outputs = fake(a.p, r.inputs)
		}
		if runCancelled {
			r.ctxErr = context.Canceled
		}
		return r
	}
	// A duplicate consumes a byte and changes nothing, so once data runs out
	// every input advances the run.
	limit := len(data) + 100
	for len(s.hist) == 0 || s.hist[len(s.hist)-1].Type != HistoryRunFinished {
		if len(ins) > limit {
			tb.Fatalf("no run-finished after %d inputs", len(ins))
		}
		ids := make([]taskKey, 0, len(s.out))
		for id := range s.out {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if ids[i].act != ids[j].act {
				return ids[i].act < ids[j].act
			}
			return ids[i].el < ids[j].el
		})
		var in input
		if len(ins) > 0 && next(6) == 5 {
			in = ins[next(len(ins))]
		} else {
			if len(ids) == 0 {
				tb.Fatalf("decider waits with no task outstanding: %v", s.log)
			}
			t := s.out[ids[next(len(ids))]]
			worker := "w" + strconv.Itoa(next(3))
			in.report = take(t, worker)
			// A first attempt leases up to k more outstanding first attempts
			// of its activity, as a batch-form invocation does.
			if k := next(4); k > 0 && t.Element >= 0 && t.Attempt == 0 {
				in.lease = []report{in.report}
				for _, id := range ids {
					if u, ok := s.out[id]; ok && len(in.lease) <= k && u.Activity == t.Activity && u.Element >= 0 && u.Attempt == 0 {
						in.lease = append(in.lease, take(u, worker))
					}
				}
			}
		}
		ins = append(ins, in)
		s.decide(in)
		runCancelled = runCancelled || strings.Contains(strings.Join(s.log, "\n"), "cancel run")
	}

	hist := s.hist
	firstFailed := len(hist)
	seen := map[string]bool{}
	for i, ev := range hist {
		if ev.Seq != i {
			tb.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == HistoryRunFinished && i != len(hist)-1 {
			tb.Fatalf("run-finished at %d of %d", i, len(hist))
		}
		if ev.Type == HistoryActivityFailed && firstFailed == len(hist) {
			firstFailed = i
		}
		record := func(element int) {
			key := ev.Activity + "#" + strconv.Itoa(element)
			if seen[key] {
				tb.Fatalf("element %s recorded twice (%s at %d)", key, ev.Type, i)
			}
			seen[key] = true
		}
		switch ev.Type {
		case HistoryIterationElement:
			record(ev.Element)
		case HistoryIterationBatch:
			for _, el := range ev.Batch {
				record(el.Index)
			}
		}
	}
	if err := s.d.err; (err != nil) != (hist[len(hist)-1].Status == "failed") {
		tb.Fatalf("result error %v beside %+v", err, hist[len(hist)-1])
	}

	// Read back as storage holds it, the history folds every completion that
	// omits its outputs back to exactly what the decider collected.
	var stored HistoryFold
	for _, ev := range hist {
		blob, err := ev.AppendJSON(nil)
		if err != nil {
			tb.Fatal(err)
		}
		var back HistoryEvent
		if err := json.Unmarshal(blob, &back); err != nil {
			tb.Fatal(err)
		}
		fa := stored.Apply(back)
		if back.Type != HistoryActivityCompleted || len(back.Outputs) > 0 {
			continue
		}
		a := s.d.acts[ev.Activity]
		got, _ := json.Marshal(fa.Outputs)
		want, _ := json.Marshal(collectOutputs(a.collected))
		if !a.iterating || !bytes.Equal(got, want) {
			tb.Fatalf("%s's completion omits its outputs and folds to %s, want %s", ev.Activity, got, want)
		}
	}

	for cut := 0; cut <= firstFailed; cut++ {
		d := newDecider(def, "run-fuzz", inputs)
		for _, ev := range hist[:cut] {
			if err := d.apply(ev); err != nil {
				tb.Fatalf("cut %d: %v", cut, err)
			}
		}
		got := append([]HistoryEvent(nil), hist[:cut]...)
		evs, _ := d.decide(input{now: decideNow, resume: true})
		got = append(got, evs...)
		for _, in := range ins {
			in.now = decideNow
			evs, _ := d.decide(in)
			got = append(got, evs...)
		}
		if len(got) != len(hist) {
			tb.Fatalf("cut %d: resumed history has %d events, want %d\n%s", cut, len(got), len(hist), strings.Join(s.log, "\n"))
		}
		for i := range got {
			g, w := got[i], hist[i]
			g.Worker, w.Worker = "", ""
			if !reflect.DeepEqual(g, w) {
				tb.Fatalf("cut %d: event %d\n got %+v\nwant %+v", cut, i, got[i], hist[i])
			}
		}
	}
	return hist
}
