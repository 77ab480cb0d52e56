package workflow

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

func TestDataJSONRoundTrip(t *testing.T) {
	cases := []Data{
		Scalar(""),
		Scalar("Vanellus chilensis"),
		List(),
		List(Scalar("a"), Scalar("b")),
		List(List(Scalar("x")), List(), Scalar("y")),
	}
	for _, in := range cases {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal %v: %v", in, err)
		}
		var out Data
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if out.String() != in.String() || out.isList != in.isList || out.Depth() != in.Depth() {
			t.Fatalf("round trip %v -> %s -> %v", in, b, out)
		}
	}
	var m map[string]Data
	if err := json.Unmarshal([]byte(`{"y": ["a", ["b"]]}`), &m); err != nil {
		t.Fatal(err)
	}
	if m["y"].String() != "[a, [b]]" {
		t.Fatalf("map decode: %v", m["y"])
	}
}

// recordHistory runs fn with a listener that captures the full history
// stream.
func recordHistory() (*[]HistoryEvent, HistoryListener) {
	var evs []HistoryEvent
	return &evs, HistoryListenerFunc(func(ev HistoryEvent) { evs = append(evs, ev) })
}

func TestEventEngineResumeReplaysPrefix(t *testing.T) {
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	reg := upperReg()
	// If the replayed processor is ever invoked, fail loudly.
	reg.Register("upper", func(_ context.Context, c Call) (map[string]Data, error) {
		t.Error("prefix-completed processor A was re-invoked")
		return map[string]Data{"y": Scalar("WRONG")}, nil
	})
	eng := NewEventEngine(reg)

	// History prefix: A scheduled, started, and completed before the crash.
	prefix := []HistoryEvent{
		{Seq: 0, Type: HistoryRunStarted, RunID: "run-resumed",
			Inputs: map[string]Data{"in": Scalar("hello")}},
		{Seq: 1, Type: HistoryActivityScheduled, RunID: "run-resumed", Activity: "A",
			Service: "upper", Inputs: map[string]Data{"x": Scalar("hello")}, Elements: -1},
		{Seq: 2, Type: HistoryActivityStarted, RunID: "run-resumed", Activity: "A", Worker: "w1"},
		{Seq: 3, Type: HistoryActivityCompleted, RunID: "run-resumed", Activity: "A",
			Iterations: 1, Outputs: map[string]Data{"y": Scalar("HELLO")}},
	}
	var events []HistoryEventType
	listener := HistoryListenerFunc(func(ev HistoryEvent) { events = append(events, ev.Type) })
	res, err := eng.Resume(context.Background(), d, map[string]Data{"in": Scalar("hello")}, "run-resumed", prefix, listener)
	if err != nil {
		t.Fatal(err)
	}
	if res.RunID != "run-resumed" {
		t.Fatalf("run ID not reused: %q", res.RunID)
	}
	if got := res.Outputs["out"].String(); got != "HELLO!" {
		t.Fatalf("out = %q", got)
	}
	if res.Invocations["A"] != 0 || res.Invocations["B"] != 1 {
		t.Fatalf("invocations = %v", res.Invocations)
	}
	if !reflect.DeepEqual(res.Replayed, []string{"A"}) {
		t.Fatalf("replayed = %v", res.Replayed)
	}
	// Fresh events continue the sequence: only B executes, then run-finished.
	want := []HistoryEventType{HistoryActivityScheduled, HistoryActivityStarted, HistoryActivityCompleted, HistoryRunFinished}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("fresh events = %v", events)
	}
}

func TestEventEngineResumeAllCompleted(t *testing.T) {
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	eng := NewEventEngine(upperReg())
	prefix := []HistoryEvent{
		{Seq: 0, Type: HistoryRunStarted, RunID: "run-full"},
		{Seq: 1, Type: HistoryActivityScheduled, RunID: "run-full", Activity: "A", Service: "upper", Elements: -1},
		{Seq: 2, Type: HistoryActivityCompleted, RunID: "run-full", Activity: "A",
			Iterations: 1, Outputs: map[string]Data{"y": Scalar("HELLO")}},
		{Seq: 3, Type: HistoryActivityScheduled, RunID: "run-full", Activity: "B", Service: "exclaim", Elements: -1},
		{Seq: 4, Type: HistoryActivityCompleted, RunID: "run-full", Activity: "B",
			Iterations: 1, Outputs: map[string]Data{"y": Scalar("HELLO!")}},
	}
	evs, listener := recordHistory()
	res, err := eng.Resume(context.Background(), d, map[string]Data{"in": Scalar("hello")}, "run-full", prefix, listener)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["out"].String(); got != "HELLO!" {
		t.Fatalf("out = %q", got)
	}
	if len(res.Invocations) != 0 {
		t.Fatalf("no services should run, got %v", res.Invocations)
	}
	if len(*evs) != 1 || (*evs)[0].Type != HistoryRunFinished || (*evs)[0].Seq != 5 {
		t.Fatalf("fresh events = %+v", *evs)
	}
}

// TestEventEngineResumeFinishedHistory covers the degenerate replay: the run
// finished durably before the crash, so resume only re-delivers the terminal
// event (letting projections repair finalization) and rebuilds the result
// from history — no service runs, no fresh events append.
func TestEventEngineResumeFinishedHistory(t *testing.T) {
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	reg := upperReg()
	reg.Register("upper", func(_ context.Context, c Call) (map[string]Data, error) {
		t.Error("finished run re-invoked a service")
		return nil, nil
	})
	eng := NewEventEngine(reg)
	prefix := []HistoryEvent{
		{Seq: 0, Type: HistoryRunStarted, RunID: "run-fin"},
		{Seq: 1, Type: HistoryActivityScheduled, RunID: "run-fin", Activity: "A", Service: "upper", Elements: -1},
		{Seq: 2, Type: HistoryActivityCompleted, RunID: "run-fin", Activity: "A",
			Iterations: 1, Outputs: map[string]Data{"y": Scalar("HELLO")}},
		{Seq: 3, Type: HistoryActivityScheduled, RunID: "run-fin", Activity: "B", Service: "exclaim", Elements: -1},
		{Seq: 4, Type: HistoryActivityCompleted, RunID: "run-fin", Activity: "B",
			Iterations: 1, Outputs: map[string]Data{"y": Scalar("HELLO!")}},
		{Seq: 5, Type: HistoryRunFinished, RunID: "run-fin", Status: "completed",
			Outputs: map[string]Data{"out": Scalar("HELLO!")}},
	}
	evs, listener := recordHistory()
	res, err := eng.Resume(context.Background(), d, map[string]Data{"in": Scalar("hello")}, "run-fin", prefix, listener)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["out"].String(); got != "HELLO!" {
		t.Fatalf("out = %q", got)
	}
	if len(res.Invocations) != 0 || !reflect.DeepEqual(res.Replayed, []string{"A", "B"}) {
		t.Fatalf("invocations %v, replayed %v", res.Invocations, res.Replayed)
	}
	// The only event delivered is the replayed terminal event, same seq.
	if len(*evs) != 1 || (*evs)[0].Type != HistoryRunFinished || (*evs)[0].Seq != 5 {
		t.Fatalf("delivered events = %+v", *evs)
	}
	failed := append(append([]HistoryEvent(nil), prefix[:5]...),
		HistoryEvent{Seq: 5, Type: HistoryRunFinished, RunID: "run-fin", Status: "failed", Err: "workflow: processor \"B\": boom"})
	if _, err := eng.Resume(context.Background(), d, map[string]Data{"in": Scalar("hello")}, "run-fin", failed); err == nil {
		t.Fatal("failed terminal event resumed without error")
	}
}

func TestEventEngineResumeRejectsBadHistory(t *testing.T) {
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	eng := NewEventEngine(upperReg())
	in := map[string]Data{"in": Scalar("x")}
	bad := []HistoryEvent{{Seq: 0, Type: HistoryActivityScheduled, Activity: "nope"}}
	if _, err := eng.Resume(context.Background(), d, in, "r", bad); err == nil {
		t.Fatal("history for unknown processor accepted")
	}
	done := []HistoryEvent{{Seq: 0, Type: HistoryRunFinished, RunID: "r", Status: "completed"}}
	if _, err := eng.Resume(context.Background(), d, in, "r", done); err == nil {
		t.Fatal("finished history lacking the workflow outputs accepted")
	}
	after := []HistoryEvent{
		{Seq: 0, Type: HistoryRunFinished, RunID: "r", Status: "completed"},
		{Seq: 1, Type: HistoryRunStarted, RunID: "r"},
	}
	if _, err := eng.Resume(context.Background(), d, in, "r", after); err == nil {
		t.Fatal("history continuing past run-finished accepted")
	}
	lacking := []HistoryEvent{
		{Seq: 0, Type: HistoryRunStarted, RunID: "r"},
		{Seq: 1, Type: HistoryActivityScheduled, Activity: "A", Service: "upper", Elements: -1},
		{Seq: 2, Type: HistoryActivityCompleted, Activity: "A", Iterations: 1, Outputs: map[string]Data{}},
	}
	if _, err := eng.Resume(context.Background(), d, in, "r", lacking); err == nil {
		t.Fatal("completed activity missing a linked output accepted")
	}
}

// TestEventEngineMatchesLegacy pins what every projection rests on: the
// history of the linear pipeline — which event, for which activity, carrying
// which service, invocation count and outputs — is the same at every worker
// count, and carries what the in-process engine this one replaced reported
// for the same run.
func TestEventEngineMatchesLegacy(t *testing.T) {
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	in := map[string]Data{"in": Scalar("hello")}

	want := []HistoryEvent{
		{Type: HistoryRunStarted},
		{Type: HistoryActivityScheduled, Activity: "A", Service: "upper"},
		{Type: HistoryActivityStarted, Activity: "A", Service: "upper"},
		{Type: HistoryActivityCompleted, Activity: "A", Iterations: 1,
			Outputs: map[string]Data{"y": Scalar("HELLO")}},
		{Type: HistoryActivityScheduled, Activity: "B", Service: "exclaim"},
		{Type: HistoryActivityStarted, Activity: "B", Service: "exclaim"},
		{Type: HistoryActivityCompleted, Activity: "B", Iterations: 1,
			Outputs: map[string]Data{"y": Scalar("HELLO!")}},
		{Type: HistoryRunFinished, Status: "completed", Outputs: map[string]Data{"out": Scalar("HELLO!")}},
	}

	for _, workers := range []int{1, 4, 16} {
		eng := NewEventEngine(upperReg())
		eng.Workers = workers
		got, listener := recordHistory()
		res, err := eng.Resume(context.Background(), d, in, "", nil, listener)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outputs["out"].String() != "HELLO!" {
			t.Fatalf("workers=%d: out = %q", workers, res.Outputs["out"])
		}
		if len(*got) != len(want) {
			t.Fatalf("workers=%d: %d history events, want %d", workers, len(*got), len(want))
		}
		for i, g := range *got {
			w := want[i]
			if g.Type != w.Type || g.Activity != w.Activity || g.Service != w.Service || g.Status != w.Status ||
				g.Iterations != w.Iterations || !reflect.DeepEqual(dataStrings(g.Outputs), dataStrings(w.Outputs)) {
				t.Fatalf("workers=%d event %d:\n got %+v\nwant %+v", workers, i, g, w)
			}
		}
	}
}

func TestEventEngineIterationAndElementEvents(t *testing.T) {
	d := &Definition{
		ID:      "wf-iter",
		Name:    "iter",
		Inputs:  []Port{{Name: "names", Depth: 1}},
		Outputs: []Port{{Name: "out", Depth: 1}},
		Processors: []*Processor{
			{Name: "Upper", Service: "upper", Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "names"}, Target: Endpoint{Processor: "Upper", Port: "x"}},
			{Source: Endpoint{Processor: "Upper", Port: "y"}, Target: Endpoint{Port: "out"}},
		},
	}
	eng := NewEventEngine(upperReg())
	eng.Workers = 4
	evs, listener := recordHistory()
	res, err := eng.Resume(context.Background(), d,
		map[string]Data{"names": List(Scalar("a"), Scalar("b"), Scalar("c"))}, "", nil, listener)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["out"].String(); got != "[A, B, C]" {
		t.Fatalf("out = %q", got)
	}
	elements := 0
	var sched HistoryEvent
	for _, ev := range *evs {
		switch ev.Type {
		case HistoryIterationElement:
			elements++
			if ev.Worker == "" {
				t.Fatalf("element event without worker: %+v", ev)
			}
		case HistoryActivityScheduled:
			sched = ev
		}
	}
	if elements != 3 {
		t.Fatalf("iteration-element events = %d, want 3", elements)
	}
	if sched.Elements != 3 {
		t.Fatalf("scheduled planned elements = %d, want 3", sched.Elements)
	}
	// Seqs are dense from 0 and the stream is closed.
	for i, ev := range *evs {
		if ev.Seq != i {
			t.Fatalf("seq gap at %d: %+v", i, ev)
		}
	}
	if last := (*evs)[len(*evs)-1]; last.Type != HistoryRunFinished || last.Status != "completed" {
		t.Fatalf("last event: %+v", last)
	}
}

func dataStrings(m map[string]Data) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v.String()
	}
	return out
}
