package workflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func upperReg() *Registry {
	reg := NewRegistry()
	reg.Register("upper", func(_ context.Context, c Call) (map[string]Data, error) {
		return map[string]Data{"y": Scalar(strings.ToUpper(c.Input("x").String()))}, nil
	})
	reg.Register("exclaim", func(_ context.Context, c Call) (map[string]Data, error) {
		return map[string]Data{"y": Scalar(c.Input("x").String() + "!")}, nil
	})
	reg.Register("concat", func(_ context.Context, c Call) (map[string]Data, error) {
		return map[string]Data{"y": Scalar(c.Input("a").String() + c.Input("b").String())}, nil
	})
	return reg
}

func TestEngineLinear(t *testing.T) {
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	eng := NewEventEngine(upperReg())
	res, err := eng.Resume(context.Background(), d, map[string]Data{"in": Scalar("hello")}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["out"].String(); got != "HELLO!" {
		t.Fatalf("out = %q", got)
	}
	if res.Invocations["A"] != 1 || res.Invocations["B"] != 1 {
		t.Fatalf("invocations = %v", res.Invocations)
	}
	if res.RunID == "" || res.FinishedAt.Before(res.StartedAt) {
		t.Fatalf("result metadata: %+v", res)
	}
}

func TestEngineDiamond(t *testing.T) {
	// in -> A, in -> B, (A,B) -> C -> out: exercises fan-out and a join.
	d := &Definition{
		ID: "wf-diamond", Name: "diamond",
		Inputs:  []Port{{Name: "in"}},
		Outputs: []Port{{Name: "out"}},
		Processors: []*Processor{
			{Name: "A", Service: "upper", Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
			{Name: "B", Service: "exclaim", Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
			{Name: "C", Service: "concat", Inputs: []Port{{Name: "a"}, {Name: "b"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: "A", Port: "x"}},
			{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: "B", Port: "x"}},
			{Source: Endpoint{Processor: "A", Port: "y"}, Target: Endpoint{Processor: "C", Port: "a"}},
			{Source: Endpoint{Processor: "B", Port: "y"}, Target: Endpoint{Processor: "C", Port: "b"}},
			{Source: Endpoint{Processor: "C", Port: "y"}, Target: Endpoint{Port: "out"}},
		},
	}
	res, err := NewEventEngine(upperReg()).Resume(context.Background(), d, map[string]Data{"in": Scalar("ab")}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["out"].String(); got != "ABab!" {
		t.Fatalf("out = %q", got)
	}
}

func TestEngineParallelism(t *testing.T) {
	// N independent slow processors must overlap in time.
	const n = 8
	var cur, max int32
	reg := NewRegistry()
	reg.Register("slow", func(_ context.Context, c Call) (map[string]Data, error) {
		v := atomic.AddInt32(&cur, 1)
		for {
			m := atomic.LoadInt32(&max)
			if v <= m || atomic.CompareAndSwapInt32(&max, m, v) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		atomic.AddInt32(&cur, -1)
		return map[string]Data{"y": c.Input("x")}, nil
	})
	d := &Definition{ID: "wf-par", Name: "par", Inputs: []Port{{Name: "in"}}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("P%d", i)
		d.Processors = append(d.Processors, &Processor{
			Name: name, Service: "slow",
			Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}},
		})
		out := fmt.Sprintf("out%d", i)
		d.Outputs = append(d.Outputs, Port{Name: out})
		d.Links = append(d.Links,
			Link{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: name, Port: "x"}},
			Link{Source: Endpoint{Processor: name, Port: "y"}, Target: Endpoint{Port: out}},
		)
	}
	eng := NewEventEngine(reg)
	eng.Workers = n
	if _, err := eng.Resume(context.Background(), d, map[string]Data{"in": Scalar("v")}, "", nil); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&max) < 2 {
		t.Fatalf("max concurrency = %d, want ≥2", max)
	}
	// With one worker concurrency must not exceed 1.
	atomic.StoreInt32(&max, 0)
	eng.Workers = 1
	if _, err := eng.Resume(context.Background(), d, map[string]Data{"in": Scalar("v")}, "", nil); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&max) != 1 {
		t.Fatalf("bounded run reached concurrency %d", max)
	}
}

func TestEngineImplicitIteration(t *testing.T) {
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	// Feed a list into a scalar-port pipeline: both processors iterate.
	in := List(Scalar("a"), Scalar("b"), Scalar("c"))
	res, err := NewEventEngine(upperReg()).Resume(context.Background(), d, map[string]Data{"in": in}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["out"].String(); got != "[A!, B!, C!]" {
		t.Fatalf("out = %q", got)
	}
	if res.Invocations["A"] != 3 || res.Invocations["B"] != 3 {
		t.Fatalf("invocations = %v", res.Invocations)
	}
}

func TestEngineIterationBroadcast(t *testing.T) {
	// concat(a: list, b: scalar) broadcasts b across the iteration.
	d := &Definition{
		ID: "wf-bcast", Name: "bcast",
		Inputs:  []Port{{Name: "many"}, {Name: "one"}},
		Outputs: []Port{{Name: "out"}},
		Processors: []*Processor{
			{Name: "C", Service: "concat", Inputs: []Port{{Name: "a"}, {Name: "b"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "many"}, Target: Endpoint{Processor: "C", Port: "a"}},
			{Source: Endpoint{Port: "one"}, Target: Endpoint{Processor: "C", Port: "b"}},
			{Source: Endpoint{Processor: "C", Port: "y"}, Target: Endpoint{Port: "out"}},
		},
	}
	res, err := NewEventEngine(upperReg()).Resume(context.Background(), d, map[string]Data{
		"many": List(Scalar("x"), Scalar("y")),
		"one":  Scalar("-suffix"),
	}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["out"].String(); got != "[x-suffix, y-suffix]" {
		t.Fatalf("out = %q", got)
	}
}

func TestEngineIterationLengthMismatch(t *testing.T) {
	d := &Definition{
		ID: "wf-mismatch", Name: "mismatch",
		Inputs:  []Port{{Name: "p"}, {Name: "q"}},
		Outputs: []Port{{Name: "out"}},
		Processors: []*Processor{
			{Name: "C", Service: "concat", Inputs: []Port{{Name: "a"}, {Name: "b"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "p"}, Target: Endpoint{Processor: "C", Port: "a"}},
			{Source: Endpoint{Port: "q"}, Target: Endpoint{Processor: "C", Port: "b"}},
			{Source: Endpoint{Processor: "C", Port: "y"}, Target: Endpoint{Port: "out"}},
		},
	}
	_, err := NewEventEngine(upperReg()).Resume(context.Background(), d, map[string]Data{
		"p": List(Scalar("x"), Scalar("y")),
		"q": List(Scalar("1"), Scalar("2"), Scalar("3")),
	}, "", nil)
	if err == nil || !strings.Contains(err.Error(), "length mismatch") {
		t.Fatalf("mismatch not detected: %v", err)
	}
}

func TestEngineDepthTooDeep(t *testing.T) {
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	_, err := NewEventEngine(upperReg()).Resume(context.Background(), d, map[string]Data{
		"in": List(List(Scalar("a"))),
	}, "", nil)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("excess depth not detected: %v", err)
	}
}

func TestEngineProcessorFailure(t *testing.T) {
	reg := upperReg()
	boom := errors.New("boom")
	reg.Register("fail", func(_ context.Context, c Call) (map[string]Data, error) {
		return nil, boom
	})
	d := linearDef()
	d.Processors[0].Service = "fail"
	d.Processors[1].Service = "exclaim"
	events, listener := recordHistory()
	_, err := NewEventEngine(reg).Resume(context.Background(), d, map[string]Data{"in": Scalar("x")}, "", nil, listener)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("failure not propagated: %v", err)
	}
	var sawFailed, sawRunFailed bool
	for _, e := range *events {
		if e.Type == HistoryActivityFailed && e.Activity == "A" && e.Err != "" {
			sawFailed = true
		}
		if e.Type == HistoryRunFinished && e.Status == "failed" {
			sawRunFailed = true
		}
		if e.Activity == "B" {
			t.Fatalf("downstream processor B has history after upstream failure: %+v", e)
		}
	}
	if !sawFailed || !sawRunFailed {
		t.Fatalf("failure events missing: failed=%v runFailed=%v", sawFailed, sawRunFailed)
	}
}

func TestEngineMissingOutputDetected(t *testing.T) {
	reg := NewRegistry()
	reg.Register("empty", func(_ context.Context, c Call) (map[string]Data, error) {
		return map[string]Data{}, nil
	})
	d := &Definition{
		ID: "wf-noout", Name: "noout",
		Inputs:  []Port{{Name: "in"}},
		Outputs: []Port{{Name: "out"}},
		Processors: []*Processor{
			{Name: "A", Service: "empty", Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: "A", Port: "x"}},
			{Source: Endpoint{Processor: "A", Port: "y"}, Target: Endpoint{Port: "out"}},
		},
	}
	_, err := NewEventEngine(reg).Resume(context.Background(), d, map[string]Data{"in": Scalar("x")}, "", nil)
	if err == nil || !strings.Contains(err.Error(), "omitted output") {
		t.Fatalf("missing output not detected: %v", err)
	}
}

func TestEngineEventOrder(t *testing.T) {
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	events, listener := recordHistory()
	_, err := NewEventEngine(upperReg()).Resume(context.Background(), d, map[string]Data{"in": Scalar("x")}, "", nil, listener)
	if err != nil {
		t.Fatal(err)
	}
	want := []HistoryEventType{HistoryRunStarted,
		HistoryActivityScheduled, HistoryActivityStarted, HistoryActivityCompleted,
		HistoryActivityScheduled, HistoryActivityStarted, HistoryActivityCompleted,
		HistoryRunFinished}
	if len(*events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(*events), len(want), *events)
	}
	for i, e := range *events {
		if e.Type != want[i] {
			t.Fatalf("event %d = %v, want %v", i, e.Type, want[i])
		}
	}
}

func TestEngineEventCarriesAnnotations(t *testing.T) {
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	when := time.Date(2013, 11, 12, 19, 58, 9, 0, time.UTC)
	d.AnnotateProcessor("A", QualityKey("reputation"), "1", "expert", when)
	var got map[string]string
	_, err := NewEventEngine(upperReg()).Resume(context.Background(), d, map[string]Data{"in": Scalar("x")}, "", nil,
		HistoryListenerFunc(func(e HistoryEvent) {
			if e.Type == HistoryActivityScheduled && e.Activity == "A" {
				got = QualityAnnotations(e.Annotations)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if got["reputation"] != "1" {
		t.Fatalf("annotations on event = %v", got)
	}
}

func TestEngineRejections(t *testing.T) {
	eng := NewEventEngine(upperReg())
	d := linearDef()
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	// Missing workflow input.
	if _, err := eng.Resume(context.Background(), d, nil, "", nil); !errors.Is(err, ErrMissingInput) {
		t.Fatalf("missing input: %v", err)
	}
	// Unregistered service.
	d2 := linearDef() // svcA/svcB unregistered
	if _, err := eng.Resume(context.Background(), d2, map[string]Data{"in": Scalar("x")}, "", nil); err == nil ||
		!strings.Contains(err.Error(), "unregistered service") {
		t.Fatalf("unregistered service: %v", err)
	}
	// Invalid definition.
	d3 := linearDef()
	d3.Name = ""
	if _, err := eng.Resume(context.Background(), d3, map[string]Data{"in": Scalar("x")}, "", nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("invalid def: %v", err)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	reg := NewRegistry()
	started := make(chan struct{})
	reg.Register("block", func(ctx context.Context, c Call) (map[string]Data, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	d := &Definition{
		ID: "wf-cancel", Name: "cancel",
		Inputs:  []Port{{Name: "in"}},
		Outputs: []Port{{Name: "out"}},
		Processors: []*Processor{
			{Name: "A", Service: "block", Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: "A", Port: "x"}},
			{Source: Endpoint{Processor: "A", Port: "y"}, Target: Endpoint{Port: "out"}},
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	_, err := NewEventEngine(reg).Resume(ctx, d, map[string]Data{"in": Scalar("x")}, "", nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation: %v", err)
	}
}

func TestProcessorRetries(t *testing.T) {
	var calls int32
	reg := NewRegistry()
	reg.Register("flaky", func(_ context.Context, c Call) (map[string]Data, error) {
		n := atomic.AddInt32(&calls, 1)
		if n%3 != 0 { // succeeds every 3rd attempt
			return nil, errors.New("transient")
		}
		return map[string]Data{"y": c.Input("x")}, nil
	})
	d := &Definition{
		ID: "wf-retry", Name: "retry",
		Inputs:  []Port{{Name: "in"}},
		Outputs: []Port{{Name: "out"}},
		Processors: []*Processor{
			{Name: "A", Service: "flaky", Retries: 4,
				Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: "A", Port: "x"}},
			{Source: Endpoint{Processor: "A", Port: "y"}, Target: Endpoint{Port: "out"}},
		},
	}
	res, err := NewEventEngine(reg).Resume(context.Background(), d, map[string]Data{"in": Scalar("v")}, "", nil)
	if err != nil {
		t.Fatalf("retrying run failed: %v", err)
	}
	if res.Outputs["out"].String() != "v" {
		t.Fatalf("out = %q", res.Outputs["out"])
	}
	if atomic.LoadInt32(&calls) != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	// With zero retries the same workflow fails.
	atomic.StoreInt32(&calls, 0)
	d.Processors[0].Retries = 0
	if _, err := NewEventEngine(reg).Resume(context.Background(), d, map[string]Data{"in": Scalar("v")}, "", nil); err == nil {
		t.Fatal("fail-fast run succeeded")
	}
	// Retries exhausted -> error mentions attempts.
	atomic.StoreInt32(&calls, 0)
	d.Processors[0].Retries = 1
	_, err = NewEventEngine(reg).Resume(context.Background(), d, map[string]Data{"in": Scalar("v")}, "", nil)
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("exhausted retries error: %v", err)
	}
	// Retries survive XML round-trip.
	d.Processors[0].Retries = 4
	blob, err := MarshalXML(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalXML(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Processors[0].Retries != 4 {
		t.Fatalf("retries lost over XML: %d", back.Processors[0].Retries)
	}
	// ...and Clone.
	if d.Clone().Processors[0].Retries != 4 {
		t.Fatal("retries lost in Clone")
	}
}

func TestRetryPerIterationElement(t *testing.T) {
	// Each list element gets its own retry budget.
	var mu sync.Mutex
	failures := map[string]int{}
	reg := NewRegistry()
	reg.Register("flaky", func(_ context.Context, c Call) (map[string]Data, error) {
		v := c.Input("x").String()
		mu.Lock()
		defer mu.Unlock()
		if failures[v] < 1 {
			failures[v]++
			return nil, errors.New("first attempt always fails")
		}
		return map[string]Data{"y": Scalar(strings.ToUpper(v))}, nil
	})
	d := &Definition{
		ID: "wf-iter-retry", Name: "iter-retry",
		Inputs:  []Port{{Name: "in", Depth: 1}},
		Outputs: []Port{{Name: "out", Depth: 1}},
		Processors: []*Processor{
			{Name: "A", Service: "flaky", Retries: 2,
				Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: "A", Port: "x"}},
			{Source: Endpoint{Processor: "A", Port: "y"}, Target: Endpoint{Port: "out"}},
		},
	}
	res, err := NewEventEngine(reg).Resume(context.Background(), d,
		map[string]Data{"in": List(Scalar("a"), Scalar("b"), Scalar("c"))}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["out"].String(); got != "[A, B, C]" {
		t.Fatalf("out = %q", got)
	}
}

func iterDef(retries int) *Definition {
	return &Definition{
		ID: "wf-iter", Name: "iter",
		Inputs:  []Port{{Name: "in", Depth: 1}},
		Outputs: []Port{{Name: "out", Depth: 1}},
		Processors: []*Processor{
			{Name: "A", Service: "work", Retries: retries,
				Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: "A", Port: "x"}},
			{Source: Endpoint{Processor: "A", Port: "y"}, Target: Endpoint{Port: "out"}},
		},
	}
}

func TestParallelIterationMatchesSequential(t *testing.T) {
	// Later elements finish first (reverse latency), so any ordering bug in
	// the parallel collector shows up as scrambled outputs or traces.
	const n = 24
	reg := NewRegistry()
	reg.Register("work", func(_ context.Context, c Call) (map[string]Data, error) {
		v := c.Input("x").String()
		var idx int
		fmt.Sscanf(v, "item%02d", &idx)
		time.Sleep(time.Duration(n-idx) * 300 * time.Microsecond)
		return map[string]Data{"y": Scalar(strings.ToUpper(v))}, nil
	})
	items := make([]Data, n)
	for i := range items {
		items[i] = Scalar(fmt.Sprintf("item%02d", i))
	}
	in := map[string]Data{"in": List(items...)}

	type capture struct {
		out      string
		elements string
	}
	runWith := func(workers int) capture {
		eng := NewEventEngine(reg)
		eng.Workers = workers
		events, listener := recordHistory()
		res, err := eng.Resume(context.Background(), iterDef(0), in, "", nil, listener)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Elements finish in any order; their traces, by index, must not vary.
		traces := make([]string, n)
		for _, e := range *events {
			if e.Type == HistoryIterationElement && e.Activity == "A" {
				traces[e.Element] = fmt.Sprintf("{Index:%d Inputs:%v Outputs:%v}", e.Element, e.Inputs, e.Outputs)
			}
		}
		elems := strings.Join(traces, " ")
		if res.Invocations["A"] != n {
			t.Fatalf("workers=%d: invocations = %d", workers, res.Invocations["A"])
		}
		return capture{out: res.Outputs["out"].String(), elements: elems}
	}

	want := runWith(1) // one worker: the sequential reference
	if want.elements == "" || !strings.Contains(want.elements, "Index:0") {
		t.Fatalf("reference trace missing: %q", want.elements)
	}
	for _, workers := range []int{4, 32} {
		got := runWith(workers)
		if got.out != want.out {
			t.Errorf("workers=%d outputs diverge:\n got %s\nwant %s", workers, got.out, want.out)
		}
		if got.elements != want.elements {
			t.Errorf("workers=%d element traces diverge from sequential run", workers)
		}
	}
}

func TestEngineUnifiedBudgetBoundsElements(t *testing.T) {
	// Three iterating processors share one worker pool of 2. A design that
	// budgeted processors and elements separately would either deadlock here
	// (processors holding slots while their elements wait for slots) or let
	// 3×budget elements run at once. The pool must (a) finish and (b) keep
	// total in-flight service calls ≤ 2.
	const procs, elems, budget = 3, 8, 2
	var cur, max int32
	reg := NewRegistry()
	reg.Register("slow", func(_ context.Context, c Call) (map[string]Data, error) {
		v := atomic.AddInt32(&cur, 1)
		for {
			m := atomic.LoadInt32(&max)
			if v <= m || atomic.CompareAndSwapInt32(&max, m, v) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt32(&cur, -1)
		return map[string]Data{"y": c.Input("x")}, nil
	})
	d := &Definition{ID: "wf-budget", Name: "budget", Inputs: []Port{{Name: "in", Depth: 1}}}
	for i := 0; i < procs; i++ {
		name := fmt.Sprintf("P%d", i)
		out := fmt.Sprintf("out%d", i)
		d.Processors = append(d.Processors, &Processor{
			Name: name, Service: "slow",
			Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}},
		})
		d.Outputs = append(d.Outputs, Port{Name: out, Depth: 1})
		d.Links = append(d.Links,
			Link{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: name, Port: "x"}},
			Link{Source: Endpoint{Processor: name, Port: "y"}, Target: Endpoint{Port: out}},
		)
	}
	items := make([]Data, elems)
	for i := range items {
		items[i] = Scalar(fmt.Sprintf("v%d", i))
	}
	eng := NewEventEngine(reg)
	eng.Workers = budget
	done := make(chan error, 1)
	go func() {
		_, err := eng.Resume(context.Background(), d, map[string]Data{"in": List(items...)}, "", nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("unified budget deadlocked")
	}
	if got := atomic.LoadInt32(&max); got > budget {
		t.Fatalf("concurrency reached %d, budget %d", got, budget)
	}
	m := eng.Metrics()
	if m.Invocations != procs*elems || m.ElementsDispatched != procs*elems {
		t.Fatalf("metrics = %+v", m)
	}
	if m.InFlight != 0 || m.PeakInFlight > budget || m.PeakInFlight < 1 {
		t.Fatalf("in-flight gauge = %+v", m)
	}
}

func TestParallelIterationFailFast(t *testing.T) {
	// Element 5 fails; everything else blocks until cancelled. The run must
	// report the sequential error shape and cancel the stragglers.
	const n, failAt = 12, 5
	var started, cancelled int32
	boom := errors.New("boom")
	reg := NewRegistry()
	reg.Register("work", func(ctx context.Context, c Call) (map[string]Data, error) {
		atomic.AddInt32(&started, 1)
		if c.Input("x").String() == fmt.Sprintf("item%02d", failAt) {
			return nil, boom
		}
		select {
		case <-ctx.Done():
			atomic.AddInt32(&cancelled, 1)
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return map[string]Data{"y": c.Input("x")}, nil
		}
	})
	items := make([]Data, n)
	for i := range items {
		items[i] = Scalar(fmt.Sprintf("item%02d", i))
	}
	eng := NewEventEngine(reg)
	eng.Workers = 8
	start := time.Now()
	_, err := eng.Resume(context.Background(), iterDef(0), map[string]Data{"in": List(items...)}, "", nil)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("failure not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("iteration %d:", failAt)) {
		t.Fatalf("error shape = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("fail-fast took %s — cancellation did not reach in-flight elements", elapsed)
	}
	if atomic.LoadInt32(&cancelled) == 0 {
		t.Fatal("no in-flight element observed cancellation")
	}
}

func TestBackoffDelay(t *testing.T) {
	p := &Processor{RetryBase: 10 * time.Millisecond, RetryCap: 40 * time.Millisecond}
	for attempt, wantCeil := range map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 40 * time.Millisecond,
		4: 40 * time.Millisecond, // capped
		9: 40 * time.Millisecond,
	} {
		for trial := 0; trial < 50; trial++ {
			d := backoffDelay(p, attempt)
			if d <= 0 || d > wantCeil {
				t.Fatalf("attempt %d: delay %s outside (0, %s]", attempt, d, wantCeil)
			}
		}
	}
	// Zero base: no backoff at all (the historical default).
	if d := backoffDelay(&Processor{Retries: 3}, 1); d != 0 {
		t.Fatalf("zero-base delay = %s", d)
	}
	// Base without cap defaults the ceiling, not the disable switch.
	if d := backoffDelay(&Processor{RetryBase: time.Millisecond}, 1); d <= 0 || d > time.Millisecond {
		t.Fatalf("uncapped first delay = %s", d)
	}
}

func TestRetryBackoffSleepsAndHonorsCancel(t *testing.T) {
	var calls int32
	reg := NewRegistry()
	reg.Register("flaky", func(_ context.Context, c Call) (map[string]Data, error) {
		if atomic.AddInt32(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return map[string]Data{"y": c.Input("x")}, nil
	})
	d := iterDef(0)
	d.Processors[0].Service = "flaky"
	d.Processors[0].Retries = 4
	d.Processors[0].RetryBase = 5 * time.Millisecond
	d.Processors[0].RetryCap = 10 * time.Millisecond
	// Scalar input: single invocation with two backoff sleeps.
	d.Inputs = []Port{{Name: "in"}}
	d.Outputs = []Port{{Name: "out"}}
	res, err := NewEventEngine(reg).Resume(context.Background(), d, map[string]Data{"in": Scalar("v")}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["out"].String() != "v" {
		t.Fatalf("out = %q", res.Outputs["out"])
	}
	// Cancellation during backoff aborts promptly instead of sleeping on.
	atomic.StoreInt32(&calls, -1000000)
	d.Processors[0].RetryBase = 10 * time.Second
	d.Processors[0].RetryCap = 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = NewEventEngine(reg).Resume(ctx, d, map[string]Data{"in": Scalar("v")}, "", nil)
	if err == nil {
		t.Fatal("cancelled backoff run succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("backoff ignored context cancellation")
	}
}

func TestRetryBackoffXMLAndClone(t *testing.T) {
	d := iterDef(3)
	d.Processors[0].RetryBase = 250 * time.Millisecond
	d.Processors[0].RetryCap = 4 * time.Second
	blob, err := MarshalXML(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalXML(blob)
	if err != nil {
		t.Fatal(err)
	}
	if p := back.Processors[0]; p.RetryBase != 250*time.Millisecond || p.RetryCap != 4*time.Second {
		t.Fatalf("backoff lost over XML: base=%s cap=%s", p.RetryBase, p.RetryCap)
	}
	if p := d.Clone().Processors[0]; p.RetryBase != 250*time.Millisecond || p.RetryCap != 4*time.Second {
		t.Fatalf("backoff lost in Clone: base=%s cap=%s", p.RetryBase, p.RetryCap)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.Lookup("x"); ok {
		t.Fatal("empty registry resolved a name")
	}
	reg.Register("x", func(_ context.Context, c Call) (map[string]Data, error) { return nil, nil })
	if _, ok := reg.Lookup("x"); !ok {
		t.Fatal("registered service not found")
	}
	if len(reg.Names()) != 1 {
		t.Fatalf("Names = %v", reg.Names())
	}
}
