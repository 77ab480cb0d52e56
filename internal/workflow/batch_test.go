package workflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// batchRecorder builds the two forms of one service from a single per-call
// function and records what the engine handed each: the sizes of the batch
// invocations and the elements that went through the single form.
type batchRecorder struct {
	fn func(ctx context.Context, c Call, batched bool) (map[string]Data, error)

	mu      sync.Mutex
	batches []int
	singles []string
}

func (b *batchRecorder) single(ctx context.Context, c Call) (map[string]Data, error) {
	b.mu.Lock()
	b.singles = append(b.singles, c.Input("x").String())
	b.mu.Unlock()
	return b.fn(ctx, c, false)
}

func (b *batchRecorder) batch(ctx context.Context, calls []Call) []CallResult {
	b.mu.Lock()
	b.batches = append(b.batches, len(calls))
	b.mu.Unlock()
	out := make([]CallResult, len(calls))
	for i, c := range calls {
		out[i].Outputs, out[i].Err = b.fn(ctx, c, true)
	}
	return out
}

func (b *batchRecorder) seen() (batches []int, singles []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	singles = append([]string(nil), b.singles...)
	sort.Strings(singles)
	return append([]int(nil), b.batches...), singles
}

func upperCall(_ context.Context, c Call, _ bool) (map[string]Data, error) {
	return map[string]Data{"y": Scalar(strings.ToUpper(c.Input("x").String()))}, nil
}

func itemList(n int) map[string]Data {
	items := make([]Data, n)
	for i := range items {
		items[i] = Scalar(fmt.Sprintf("item%03d", i))
	}
	return map[string]Data{"in": List(items...)}
}

// elementHistory is what a run's history says about its elements, in a form
// independent of the order workers finished them in and of whether they were
// recorded one per event or a lease per event.
type elementHistory struct {
	out      string
	elements string // index-ordered "i:in->out" of every element an iteration-element or iteration-batch event records
	retries  string // sorted "element@attempt" of every retry-backoff event
	err      string
}

// runRecorded runs def and returns what its history says about its elements,
// and the history itself.
func runRecorded(t *testing.T, eng *EventEngine, def *Definition, in map[string]Data) (elementHistory, []HistoryEvent) {
	t.Helper()
	evs, listener := recordHistory()
	res, err := eng.Resume(context.Background(), def, in, "", nil, listener)
	var h elementHistory
	if err != nil {
		h.err = err.Error()
	} else {
		h.out = res.Outputs["out"].String()
	}
	var elements, retries []string
	for i, ev := range *evs {
		if ev.Seq != i {
			t.Fatalf("seq gap at %d: %+v", i, ev)
		}
		switch ev.Type {
		case HistoryIterationElement:
			elements = append(elements, fmt.Sprintf("%03d:%s->%s", ev.Element, ev.Inputs["x"], ev.Outputs["y"]))
		case HistoryIterationBatch:
			for _, el := range ev.Batch {
				elements = append(elements, fmt.Sprintf("%03d:%s->%s", el.Index, el.Inputs["x"], el.Outputs["y"]))
			}
		case HistoryRetryBackoff:
			retries = append(retries, fmt.Sprintf("%03d@%d", ev.Element, ev.Attempt))
		}
	}
	sort.Strings(elements)
	sort.Strings(retries)
	h.elements, h.retries = strings.Join(elements, " "), strings.Join(retries, " ")
	return h, *evs
}

// countEvents counts the events of type typ.
func countEvents(evs []HistoryEvent, typ HistoryEventType) int {
	n := 0
	for _, ev := range evs {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// TestBatchDispatchMatchesPerElement is the engine-level equivalence: the same
// iteration through a service with and without a batch form yields the same
// outputs and records the same elements at every pool size — one
// iteration-batch event per batch invocation where the per-element run has
// one iteration-element event per element — and the batch form really
// carried the elements, MaxElementBatch at most per invocation.
func TestBatchDispatchMatchesPerElement(t *testing.T) {
	const n = 2*MaxElementBatch + 37
	in := itemList(n)

	plain := NewRegistry()
	plain.Register("work", func(ctx context.Context, c Call) (map[string]Data, error) { return upperCall(ctx, c, false) })
	want, wantEvs := runRecorded(t, NewEventEngine(plain), iterDef(0), in)
	if want.err != "" || !strings.Contains(want.elements, "000:item000->ITEM000") {
		t.Fatalf("reference run: %+v", want)
	}

	for _, workers := range []int{1, 4, 16} {
		rec := &batchRecorder{fn: upperCall}
		reg := NewRegistry()
		reg.RegisterBatch("work", rec.single, rec.batch)
		eng := NewEventEngine(reg)
		eng.Workers = workers
		got, evs := runRecorded(t, eng, iterDef(0), in)
		if got != want {
			t.Errorf("workers=%d: batched run diverges from per-element run\n got out %.40s, err %q\nwant out %.40s",
				workers, got.out, got.err, want.out)
		}
		batches, singles := rec.seen()
		if b, e := countEvents(evs, HistoryIterationBatch), countEvents(evs, HistoryIterationElement); b != len(batches) || e != len(singles) {
			t.Errorf("workers=%d: %d iteration-batch and %d iteration-element events for %d batch and %d single invocations",
				workers, b, e, len(batches), len(singles))
		}
		if len(evs) != len(wantEvs)-n+len(batches)+len(singles) {
			t.Errorf("workers=%d: %d events, want the per-element run's %d with one per invocation in place of one per element",
				workers, len(evs), len(wantEvs))
		}
		carried := len(singles)
		for _, size := range batches {
			if size < 2 || size > MaxElementBatch {
				t.Errorf("workers=%d: batch of %d elements (limit %d)", workers, size, MaxElementBatch)
			}
			carried += size
		}
		if carried != n || len(batches) == 0 {
			t.Errorf("workers=%d: %d batches + %d singles carried %d of %d elements", workers, len(batches), len(singles), carried, n)
		}
		m := eng.Metrics()
		if m.Invocations != n || m.ElementsDispatched != n || m.Batches != int64(len(batches)) || m.BatchedElements != int64(n-len(singles)) {
			t.Errorf("workers=%d: metrics %+v for %d batches, %d singles", workers, m, len(batches), len(singles))
		}
		if m.InFlight != 0 || m.PeakInFlight > int64(workers) {
			t.Errorf("workers=%d: in-flight gauge %+v", workers, m)
		}
	}
}

// TestBatchSlotErrorContinuesOnRetryPath: a slot the batch form failed is
// attempt 0 of that element — its retries run alone through the single form
// from attempt 1, with the retry-backoff events, the attempt budget and the
// error shape a per-element run has. The backoff is zero so the one worker's
// FIFO queue fixes the order: item003's retry runs before item007's last
// attempt fails the activity and cancels it (with jittered backoff either may
// come first).
func TestBatchSlotErrorContinuesOnRetryPath(t *testing.T) {
	const n = 12
	flaky := map[string]bool{"item003": true, "item007": true}
	boom := errors.New("boom")
	// The first attempt at a flaky element fails, in whichever form it runs;
	// item007 never recovers.
	newService := func() *batchRecorder {
		var mu sync.Mutex
		attempts := map[string]int{}
		return &batchRecorder{fn: func(ctx context.Context, c Call, _ bool) (map[string]Data, error) {
			v := c.Input("x").String()
			mu.Lock()
			attempts[v]++
			first := attempts[v] == 1
			mu.Unlock()
			if flaky[v] && (first || v == "item007") {
				return nil, boom
			}
			return upperCall(ctx, c, false)
		}}
	}
	var evs []HistoryEvent
	run := func(batched bool, retries int) (elementHistory, *batchRecorder) {
		svc := newService()
		reg := NewRegistry()
		if batched {
			reg.RegisterBatch("work", svc.single, svc.batch)
		} else {
			reg.Register("work", svc.single)
		}
		var h elementHistory
		h, evs = runRecorded(t, NewEventEngine(reg), iterDef(retries), itemList(n))
		return h, svc
	}

	want, _ := run(false, 2)
	got, svc := run(true, 2)
	if !strings.Contains(want.err, "iteration 7: after 3 attempts: boom") || want.retries != "003@1 007@1 007@2" {
		t.Fatalf("per-element reference: err %q, retries %q", want.err, want.retries)
	}
	if got.err != want.err || got.retries != want.retries {
		t.Errorf("batched run: err %q, retries %q\nper-element: err %q, retries %q", got.err, got.retries, want.err, want.retries)
	}
	batches, singles := svc.seen()
	if len(batches) != 1 || batches[0] != n {
		t.Errorf("batch invocations %v, want one of %d", batches, n)
	}
	// The single form saw only the failed slots: one retry of item003, two
	// of item007.
	if strings.Join(singles, " ") != "item003 item007 item007" {
		t.Errorf("single form ran %v", singles)
	}
	// Ten elements settled in the batch, recorded as one iteration-batch;
	// item003 on its retry, recorded as an iteration-element.
	if c := strings.Count(got.elements, "->"); c != n-1 {
		t.Errorf("%d elements recorded, want %d: %s", c, n-1, got.elements)
	}
	for _, ev := range evs {
		switch {
		case ev.Type == HistoryIterationBatch && len(ev.Batch) != n-2:
			t.Errorf("iteration-batch of %d elements, want the %d slots that succeeded", len(ev.Batch), n-2)
		case ev.Type == HistoryIterationElement && ev.Element != 3:
			t.Errorf("iteration-element for element %d, want only item003's retry", ev.Element)
		}
	}
	if b, e := countEvents(evs, HistoryIterationBatch), countEvents(evs, HistoryIterationElement); b != 1 || e != 1 {
		t.Errorf("%d iteration-batch and %d iteration-element events, want 1 and 1", b, e)
	}

	// Without a retry budget the slot's error is the element's last word.
	want, _ = run(false, 0)
	got, svc = run(true, 0)
	if !strings.Contains(want.err, "iteration 3: boom") || got.err != want.err || got.retries != "" {
		t.Errorf("no retries: batched err %q retries %q, per-element err %q", got.err, got.retries, want.err)
	}
	if _, singles := svc.seen(); len(singles) != 0 {
		t.Errorf("no retries: single form ran %v", singles)
	}
}

// TestBatchShortAnswerFailsEveryElement: a batch form that breaks its
// contract (fewer results than calls) fails the elements it was handed
// instead of panicking or leaving tasks unreported.
func TestBatchShortAnswerFailsEveryElement(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterBatch("work",
		func(ctx context.Context, c Call) (map[string]Data, error) { return upperCall(ctx, c, false) },
		func(_ context.Context, calls []Call) []CallResult { return make([]CallResult, len(calls)-1) })
	_, err := NewEventEngine(reg).Resume(context.Background(), iterDef(0), itemList(5), "", nil)
	if err == nil || !strings.Contains(err.Error(), "iteration 0:") || !strings.Contains(err.Error(), "returned 4 results for 5 calls") {
		t.Fatalf("short batch answer: %v", err)
	}
}

// TestBatchKilledWorkerNacksWholeLease: a worker killed after leasing a batch
// returns every task of the lease, the survivor runs them, and nothing is
// lost, duplicated or left on the gauges.
func TestBatchKilledWorkerNacksWholeLease(t *testing.T) {
	const n = 40
	rec := &batchRecorder{fn: upperCall}
	reg := NewRegistry()
	reg.RegisterBatch("work", rec.single, rec.batch)
	eng := NewEventEngine(reg)
	eng.Workers = 2
	eng.Stats = NewWorkerRegistry()
	var mu sync.Mutex
	victim := ""
	eng.KillWorker = func(id string, _ int) bool {
		mu.Lock()
		defer mu.Unlock()
		if victim == "" {
			victim = id
		}
		return id == victim
	}
	evs, listener := recordHistory()
	res, err := eng.Resume(context.Background(), iterDef(0), itemList(n), "", nil, listener)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invocations["A"] != n || res.Outputs["out"].Len() != n {
		t.Fatalf("invocations %v, %d outputs", res.Invocations, res.Outputs["out"].Len())
	}
	elements := 0
	for _, ev := range *evs {
		switch ev.Type {
		case HistoryIterationElement:
			elements++
		case HistoryIterationBatch:
			elements += len(ev.Batch)
		default:
			continue
		}
		if ev.Worker == victim {
			t.Errorf("%s reported by the killed worker %s", ev.Type, victim)
		}
	}
	if elements != n {
		t.Fatalf("%d elements recorded, want %d", elements, n)
	}
	// Only the survivor's leases reached the service: every element exactly
	// once. (Usually the victim dequeues first and leases all n, but the two
	// workers can split the queue before either meets the kill hook.)
	batches, singles := rec.seen()
	carried := len(singles)
	for _, size := range batches {
		carried += size
	}
	if carried != n || len(batches) == 0 {
		t.Errorf("service saw batches %v, singles %v; want the %d elements once each, batched", batches, singles, n)
	}
	c := eng.Stats.Counters()
	if c["workers.killed"] != 1 || c["workers.tasks_total"] != n || c["queue.depth"] != 0 || c["queue.in_flight"] != 0 {
		t.Errorf("worker stats after the kill: %v", c)
	}
}

// TestBatchCancelledActivityDrains: once a slot's failure cancels the
// activity, the elements still queued are drained without another service
// call, and the run fails with the per-element error shape.
func TestBatchCancelledActivityDrains(t *testing.T) {
	const n = MaxElementBatch + 50
	boom := errors.New("boom")
	rec := &batchRecorder{fn: func(ctx context.Context, c Call, _ bool) (map[string]Data, error) {
		if c.Input("x").String() == "item005" {
			return nil, boom
		}
		return upperCall(ctx, c, false)
	}}
	reg := NewRegistry()
	reg.RegisterBatch("work", rec.single, rec.batch)
	eng := NewEventEngine(reg)
	eng.Stats = NewWorkerRegistry()
	got, evs := runRecorded(t, eng, iterDef(0), itemList(n))
	if !strings.Contains(got.err, "iteration 5: boom") {
		t.Fatalf("run error %q", got.err)
	}
	if batches, singles := rec.seen(); len(batches) != 1 || batches[0] != MaxElementBatch || len(singles) != 0 {
		t.Errorf("service saw batches %v, singles %v; the cancelled tail must not reach it", batches, singles)
	}
	if c := strings.Count(got.elements, "->"); c != MaxElementBatch-1 {
		t.Errorf("%d elements recorded, want the %d slots that succeeded", c, MaxElementBatch-1)
	}
	if b, e := countEvents(evs, HistoryIterationBatch), countEvents(evs, HistoryIterationElement); b != 1 || e != 0 {
		t.Errorf("%d iteration-batch and %d iteration-element events, want the lease's one batch", b, e)
	}
	if c := eng.Stats.Counters(); c["workers.tasks_total"] != n || c["queue.depth"] != 0 || c["queue.in_flight"] != 0 {
		t.Errorf("worker stats after the drain: %v", c)
	}
}

// TestRegistryBatchForms pins the registry's handling of the two forms.
func TestRegistryBatchForms(t *testing.T) {
	single := func(ctx context.Context, c Call) (map[string]Data, error) { return upperCall(ctx, c, false) }
	reg := NewRegistry()
	reg.RegisterBatch("work", single, (&batchRecorder{fn: upperCall}).batch)
	reg.Register("plain", single)
	if _, ok := reg.LookupBatch("work"); !ok {
		t.Error("batch form not registered")
	}
	if _, ok := reg.LookupBatch("plain"); ok {
		t.Error("single-only service has a batch form")
	}
	clone := reg.Clone()
	// Re-registering the single form replaces the implementation: the batch
	// form of the old one must not survive it.
	reg.Register("work", single)
	if _, ok := reg.LookupBatch("work"); ok {
		t.Error("batch form survived re-registration of the single form")
	}
	if _, ok := clone.LookupBatch("work"); !ok {
		t.Error("clone shares state with the registry it was cloned from")
	}
	if _, ok := clone.Lookup("plain"); !ok {
		t.Error("clone lost a service")
	}
}
