package provenance

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/opm"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// cutAfter forwards the delta stream up to and including the first delta
// match accepts and drops the rest — the prefix a process death right after
// that delta leaves in storage.
type cutAfter struct {
	inner Sink
	match func(Delta) bool
	cut   bool
}

// historyFunc adapts a function to workflow.HistoryListener.
type historyFunc func(workflow.HistoryEvent)

func (f historyFunc) OnHistoryEvent(ev workflow.HistoryEvent) { f(ev) }

func (s *cutAfter) Emit(d Delta) error {
	if s.cut {
		return nil
	}
	s.cut = s.match(d)
	return s.inner.Emit(d)
}

// captureRun runs def into repo through a batch writer — behind cut, when
// given: a sink that drops the tail of the stream and may cancel the run —
// and returns the run ID, the number of deltas that reached the writer and
// the engine's error.
func captureRun(t *testing.T, repo *Repository, def *workflow.Definition, inputs map[string]workflow.Data,
	reg *workflow.Registry, workers int, cut func(Sink, context.CancelFunc) Sink) (string, int, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := NewCollector("curator")
	w := repo.NewBatchWriter(BatchWriterOptions{})
	if cut != nil {
		col.AddSink(cut(w, cancel))
	} else {
		col.AddSink(w)
	}
	eng := workflow.NewEventEngine(reg)
	eng.Workers = workers
	_, runErr := eng.Resume(ctx, def, inputs, "", nil, col)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return col.Info().RunID, int(w.Metrics().Enqueued), runErr
}

// resumeRun resumes an interrupted run the way core does: the stored history
// replays through the engine and a fresh Collector, and a resume writer
// appends what is missing and ends the run with its graph.
func resumeRun(t *testing.T, repo *Repository, runID string, def *workflow.Definition,
	inputs map[string]workflow.Data, reg *workflow.Registry, workers int) error {
	t.Helper()
	history, err := repo.History(runID)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector("curator")
	w, err := repo.ResumeRunWriter(runID, BatchWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	col.AddSink(w)
	eng := workflow.NewEventEngine(reg)
	eng.Workers = workers
	_, runErr := eng.Resume(context.Background(), def, inputs, runID, history, col)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return runErr
}

// parentStep is one delta of the stream the previous version persisted
// while a run executed: a history event, or a graph delta (nil for the run
// row, which carried no graph).
type parentStep struct {
	event bool
	graph func(*opm.Graph)
}

// parentStream rebuilds, from a run's history, the stream the previous
// version's Collector emitted for it: the run row; per event, the graph
// deltas the event implied — its new nodes, the annotations it set, its new
// edges — and then the event, except that run-finished went out ahead of the
// edges its completion rules inferred; and the run's end. A crash after any
// proper prefix of it left a directory this version must resume from.
func parentStream(t *testing.T, history []workflow.HistoryEvent) []parentStep {
	t.Helper()
	col := NewCollector("curator")
	steps := []parentStep{{}}
	for _, ev := range history {
		before := col.Graph()
		col.OnHistoryPrefix([]workflow.HistoryEvent{ev})
		after := col.Graph()
		var implied []parentStep
		for _, n := range after.Nodes() {
			old, existed := before.Node(n.ID)
			if !existed {
				bare := *n
				bare.Annotations = nil
				implied = append(implied, parentStep{graph: func(g *opm.Graph) { g.AddNode(bare) }})
			}
			inKeyOrder(n.Annotations, func(k, v string) {
				if !existed || old.Annotations[k] != v {
					id := n.ID
					implied = append(implied, parentStep{graph: func(g *opm.Graph) { g.Annotate(id, k, v) }})
				}
			})
		}
		for _, e := range after.Edges()[before.EdgeCount():] {
			implied = append(implied, parentStep{graph: func(g *opm.Graph) { g.AddEdge(e) }})
		}
		if ev.Type == workflow.HistoryRunFinished {
			steps = append(append(steps, parentStep{event: true}), implied...)
		} else {
			steps = append(append(steps, implied...), parentStep{event: true})
		}
	}
	return append(steps, parentStep{})
}

// writeParentCut writes into repo, with storage ops, what the previous
// version had committed for a run when it died after the first cut deltas of
// its stream: the run row, still running; the history events among them; and
// the graph rows they had streamed — nodes with the annotations set so far,
// edges sequenced in stream order. It returns the run ID.
func writeParentCut(t *testing.T, repo *Repository, history []workflow.HistoryEvent, stream []parentStep, cut int) string {
	t.Helper()
	partial, stored := opm.NewGraph(), 0
	for _, step := range stream[:cut] {
		switch {
		case step.event:
			stored++
		case step.graph != nil:
			step.graph(partial)
		}
	}
	start := history[0]
	info := RunInfo{RunID: start.RunID, WorkflowID: start.WorkflowID, WorkflowName: start.WorkflowName,
		StartedAt: start.Time, Status: RunRunning}
	var b rowBuilder
	b.run(storage.InsertOp, info)
	for i := range history[:stored] {
		if err := b.history(info.RunID, &history[i]); err != nil {
			t.Fatal(err)
		}
	}
	b.graph(info.RunID, partial)
	if err := repo.db.Apply(b.ops...); err != nil {
		t.Fatal(err)
	}
	return info.RunID
}

// storedEvents counts the history events among the first cut deltas of
// stream.
func storedEvents(stream []parentStep, cut int) int {
	n := 0
	for _, step := range stream[:min(cut, len(stream))] {
		if step.event {
			n++
		}
	}
	return n
}

// resumeCut is the crash contract at one cut of the previous version's
// stream, for both directories a crash there can leave: this version's —
// the same history stored, killed through a CrashSink, no graph — and the
// previous version's — that history plus the graph rows it had streamed,
// written with storage ops. Each unfinished run is resumed, and check judges
// what each directory ends up storing. stream is the previous version's
// stream of one uninterrupted run on these workers (history its events); a
// cut at or past its end left a finished run: there is no previous-version
// directory to resume.
func resumeCut(t *testing.T, def *workflow.Definition, inputs map[string]workflow.Data,
	reg func() *workflow.Registry, workers int, history []workflow.HistoryEvent, stream []parentStep, cut int,
	wantErr bool, check func(t *testing.T, repo *Repository, runID string)) {
	t.Helper()
	resume := func(repo *Repository, runID string) {
		if info, err := repo.Run(runID); err != nil {
			t.Fatal(err)
		} else if info.Status == RunRunning {
			if err := resumeRun(t, repo, runID, def, inputs, reg(), workers); (err != nil) != wantErr {
				t.Fatalf("resume error = %v", err)
			}
		}
		check(t, repo, runID)
	}
	if k := storedEvents(stream, cut); k > 0 {
		// (A run cut inside its last event finishes: only check applies.)
		repo, _ := openRepo(t)
		runID, _, _ := captureRun(t, repo, def, inputs, reg(), workers,
			func(w Sink, cancel context.CancelFunc) Sink { return NewCrashSink(w, k, cancel) })
		resume(repo, runID)
	}
	if cut < len(stream) {
		repo, _ := openRepo(t)
		resume(repo, writeParentCut(t, repo, history, stream, cut))
	}
}

// withoutClock copies g minus what the wall clock stamps — edge times and the
// "duration" annotation — keeping edge order, so a stored graph (its times
// cut to the microsecond) compares with a fresh fold of its history.
func withoutClock(t *testing.T, g *opm.Graph) *opm.Graph {
	t.Helper()
	out := opm.NewGraph()
	for _, n := range g.Nodes() {
		cp := *n
		cp.Annotations = map[string]string{}
		for k, v := range n.Annotations {
			if k != "duration" {
				cp.Annotations[k] = v
			}
		}
		if err := out.AddNode(cp); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Edges() {
		e.Time = time.Time{}
		if err := out.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// assertGraphIsFoldOfHistory checks the stored graph of a run against its
// stored history: a fresh Collector fed History(runID) and nothing else must
// arrive at the same nodes and annotations and the same edges in the order
// of their stored seq — and the graph must be legal OPM.
func assertGraphIsFoldOfHistory(t *testing.T, repo *Repository, runID string) *opm.Graph {
	t.Helper()
	stored, err := repo.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	history, err := repo.History(runID)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector("curator")
	col.OnHistoryPrefix(history)
	assertSameGraph(t, withoutClock(t, col.Graph()), withoutClock(t, stored))
	if problems := stored.CheckLegality(); len(problems) > 0 {
		t.Fatalf("stored graph is illegal OPM: %v", problems)
	}
	return stored
}

// TestResumePastFailedActivity: an activity fails, its activity-failed event
// reaches storage, and the process dies before run-finished does (the two can
// land in different BatchWriter flushes). The engine keeps a failed activity
// scheduled — the resumed run re-executes it under the recorded binding and
// reuses the surviving elements — so provenance must too: the completion
// after the prefix is recorded with the service, inputs and per-element
// lineage of the original schedule, not from a blank slate.
func TestResumePastFailedActivity(t *testing.T) {
	def, inputs := detectionDef(), detectionInputs()
	baseRepo, _ := openRepo(t)
	baseID, _, err := captureRun(t, baseRepo, def, inputs, detectionRegistry(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseG, err := baseRepo.Graph(baseID)
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: element 1 of Catalog_of_life fails, and the stream is cut
	// right behind the activity-failed event.
	repo, _ := openRepo(t)
	flaky := detectionRegistry()
	healthy, _ := flaky.Lookup("resolve")
	flaky.Register("resolve", func(ctx context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		if c.Input("name").String() == "Hyla faber" {
			return nil, errors.New("authority hiccup")
		}
		return healthy(ctx, c)
	})
	runID, _, err := captureRun(t, repo, def, inputs, flaky, 1, func(w Sink, _ context.CancelFunc) Sink {
		return &cutAfter{inner: w, match: func(d Delta) bool {
			return d.Kind == DeltaHistory && d.History.Type == workflow.HistoryActivityFailed
		}}
	})
	if err == nil {
		t.Fatal("first attempt did not fail")
	}
	history, err := repo.History(runID)
	if err != nil {
		t.Fatal(err)
	}
	if last := history[len(history)-1]; last.Type != workflow.HistoryActivityFailed || last.Activity != "Catalog_of_life" {
		t.Fatalf("persisted prefix ends at %+v, want Catalog_of_life's activity-failed", last)
	}

	// The authority recovered: the resume completes the run.
	if err := resumeRun(t, repo, runID, def, inputs, detectionRegistry(), 1); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if info, err := repo.Run(runID); err != nil || info.Status != RunCompleted {
		t.Fatalf("resumed run = %+v, %v", info, err)
	}
	g := assertGraphIsFoldOfHistory(t, repo, runID)
	proc, ok := g.Node("p:" + runID + "/Catalog_of_life")
	if !ok {
		t.Fatal("Catalog_of_life process node missing")
	}
	if got := proc.Annotations["service"]; got != "resolve" {
		t.Errorf("service annotation = %q, want %q", got, "resolve")
	}
	// The failed attempt stays on record; everything else is the graph of a
	// run that never failed.
	if proc.Annotations["error"] == "" {
		t.Error("the failed attempt's error annotation is gone")
	}
	delete(proc.Annotations, "error")
	if got, want := canonicalRun(g, runID), canonicalRun(baseG, baseID); got != want {
		t.Errorf("graph resumed past the failed activity differs from an uninterrupted run\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// pairDef extends the detection pipeline with a two-input, two-output
// processor, so the order a processor's ports are recorded in shows up in the
// stored edge sequence:
//
//	metadata -> Normalize -> Catalog_of_life -+-> Pair -> summary, flags
//	                 \------------------------/
func pairDef() *workflow.Definition {
	d := detectionDef()
	d.Outputs = []workflow.Port{{Name: "summary"}, {Name: "flags"}}
	d.Processors = append(d.Processors, &workflow.Processor{
		Name: "Pair", Service: "pair",
		Inputs:  []workflow.Port{{Name: "name"}, {Name: "status"}},
		Outputs: []workflow.Port{{Name: "line"}, {Name: "flag"}},
	})
	d.Links = append(d.Links[:2:2],
		workflow.Link{Source: workflow.Endpoint{Processor: "Normalize", Port: "clean"}, Target: workflow.Endpoint{Processor: "Pair", Port: "name"}},
		workflow.Link{Source: workflow.Endpoint{Processor: "Catalog_of_life", Port: "status"}, Target: workflow.Endpoint{Processor: "Pair", Port: "status"}},
		workflow.Link{Source: workflow.Endpoint{Processor: "Pair", Port: "line"}, Target: workflow.Endpoint{Port: "summary"}},
		workflow.Link{Source: workflow.Endpoint{Processor: "Pair", Port: "flag"}, Target: workflow.Endpoint{Port: "flags"}},
	)
	return d
}

// pairRegistry serves pairDef. With failing set, Pair's element 1 fails every
// time it is invoked: the failure is the service's, so a resumed run repeats
// it and the re-derived activity-failed event implies what the first did.
func pairRegistry(failing bool) *workflow.Registry {
	reg := detectionRegistry()
	reg.Register("pair", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		name, status := c.Input("name").String(), c.Input("status").String()
		if failing && name == "Hyla faber" {
			return nil, errors.New("pairing failed")
		}
		return map[string]workflow.Data{
			"line": workflow.Scalar(name + " | " + status),
			"flag": workflow.Scalar(fmt.Sprintf("%s outdated: %v", name, status == name+"=outdated")),
		}, nil
	})
	return reg
}

// TestGraphIsAFunctionOfHistory is the property the Collector exists for: a
// run's stored graph is the fold of its stored history and of nothing else —
// not of how often the run was interrupted, where, on how many workers, in
// which order Go ranges over a port map, or which version wrote the
// directory it resumed from. The cuts are those of the previous version's
// stream (history and graph deltas interleaved, parentStream): at each, this
// version killed with the same history stored, and the previous version's
// directory, are resumed, and each stored graph is compared, edge for edge in
// stored order, with a fresh fold of the stored history, and canonically
// with the uninterrupted run. The failing case cuts and resumes a run whose
// two-input processor fails on one element, so every prefix that ends past
// an activity-failed event is covered too.
func TestGraphIsAFunctionOfHistory(t *testing.T) {
	def, inputs := pairDef(), detectionInputs()
	for _, failing := range []bool{false, true} {
		reg := func() *workflow.Registry { return pairRegistry(failing) }
		baseRepo, _ := openRepo(t)
		baseID, _, err := captureRun(t, baseRepo, def, inputs, reg(), 1, nil)
		if (err != nil) != failing {
			t.Fatalf("uninterrupted run error = %v", err)
		}
		want := canonicalRun(assertGraphIsFoldOfHistory(t, baseRepo, baseID), baseID)
		baseHistory, err := baseRepo.History(baseID)
		if err != nil {
			t.Fatal(err)
		}
		total := len(parentStream(t, baseHistory))
		if total < 40 {
			t.Fatalf("suspiciously short stream: %d deltas", total)
		}
		check := func(t *testing.T, repo *Repository, runID string) {
			g := assertGraphIsFoldOfHistory(t, repo, runID)
			if got := canonicalRun(g, runID); got != want {
				t.Errorf("graph differs from the uninterrupted run\nwant:\n%s\ngot:\n%s", want, got)
			}
		}

		for _, workers := range []int{1, 4} {
			// The previous version's directories come from one uninterrupted
			// run on these workers. (A failing run on several workers can
			// close in fewer deltas than the cut: then it finished there.)
			repo, _ := openRepo(t)
			runID, _, _ := captureRun(t, repo, def, inputs, reg(), workers, nil)
			history, err := repo.History(runID)
			if err != nil {
				t.Fatal(err)
			}
			stream := parentStream(t, history)
			for cut := 1; cut < total; cut++ {
				t.Run(fmt.Sprintf("failing=%v/workers=%d/cut=%d", failing, workers, cut), func(t *testing.T) {
					resumeCut(t, def, inputs, reg, workers, history, stream, cut, failing, check)
				})
			}
		}
	}
}

// FuzzCollectorHistory fuzzes the Collector's input boundary: bytes decoded
// the way the repository decodes stored history rows, the first k events
// folded silently as a resumed run's prefix and the rest delivered live.
// Whatever the history claims — unknown activities, elements before their
// schedule, negative indices, events past run-finished, duplicate
// completions, batches that repeat an index, name one out of range, repeat
// one an iteration-element holds or belong to an activity never scheduled —
// the Collector never panics, emits one delta per live event until the run
// finishes (a terminal event delivered again writes no second graph), hands
// over its own graph with the run's end, and that graph has no dangling edge.
// For a split of a real run's history — its names dispatched one per call,
// or leased to a batch form — the split is a resume, and it must arrive at
// exactly the graph of the unsplit fold, a legal one. (A hostile history can
// make two activities generate one content-addressed artifact; that
// illegality is the input's.)
func FuzzCollectorHistory(f *testing.F) {
	batched := detectionRegistry()
	resolve, _ := batched.Lookup("resolve")
	batched.RegisterBatch("resolve", resolve, func(ctx context.Context, calls []workflow.Call) []workflow.CallResult {
		out := make([]workflow.CallResult, len(calls))
		for i, c := range calls {
			out[i].Outputs, out[i].Err = resolve(ctx, c)
		}
		return out
	})
	wholes := map[string]*opm.Graph{} // a real history's blob -> its unsplit fold
	for _, reg := range []*workflow.Registry{detectionRegistry(), batched} {
		var real []workflow.HistoryEvent
		if _, err := workflow.NewEventEngine(reg).Resume(context.Background(), detectionDef(), detectionInputs(), "", nil,
			historyFunc(func(ev workflow.HistoryEvent) { real = append(real, ev) })); err != nil {
			f.Fatal(err)
		}
		realBlob, err := json.Marshal(real)
		if err != nil {
			f.Fatal(err)
		}
		for k := 0; k <= len(real); k++ {
			f.Add(realBlob, uint8(k))
		}
		whole := NewCollector("curator")
		for _, ev := range real {
			whole.OnHistoryEvent(ev)
		}
		wholes[string(realBlob)] = whole.Graph()
	}
	for _, hostile := range []string{
		`[{"seq":0,"type":"run-started"},{"seq":1,"type":"activity-scheduled","activity":"A","inputs":{"x":["a","b"]},"elements":2},{"seq":2,"type":"iteration-element","activity":"A","element":7,"outputs":{"y":"Z"}},{"seq":3,"type":"iteration-element","activity":"A","element":-3},{"seq":4,"type":"activity-completed","activity":"A","outputs":{"y":["Z"]}}]`,
		`[{"seq":0,"type":"run-started"},{"seq":1,"type":"run-finished","status":"completed","outputs":{"out":"X"}},{"seq":2,"type":"activity-scheduled","activity":"A"},{"seq":3,"type":"activity-completed","activity":"A","outputs":{"y":"X"}}]`,
		`[{"seq":0,"type":"activity-completed","activity":"nope","outputs":{"y":"X"}}]`,
		`[{"seq":-5,"type":"run-started"},{"seq":-5,"type":"activity-completed","activity":"B","iterations":1,"outputs":{"y":[["deep"]]}},{"seq":-5,"type":"activity-failed","activity":"A"},{"seq":-5,"type":"activity-completed","activity":"B","outputs":{"y":"again"}}]`,
		`[{"seq":1,"type":"activity-completed","activity":"A","outputs":{}},{"seq":2,"type":"run-finished","status":"failed","error":"x"},{"seq":3,"type":"run-started"}]`,
		`[{"seq":0,"type":"run-started"},{"seq":1,"type":"activity-scheduled","activity":"A","inputs":{"x":["a","b"]},"elements":2},{"seq":2,"type":"iteration-batch","activity":"A","batch":[{"element":1,"inputs":{"x":"b"},"outputs":{"y":"B"}},{"element":1,"inputs":{"x":"b"},"outputs":{"y":"Z"}}]},{"seq":3,"type":"activity-completed","activity":"A"}]`,
		`[{"seq":0,"type":"run-started"},{"seq":1,"type":"activity-scheduled","activity":"A","inputs":{"x":["a","b"]},"elements":2},{"seq":2,"type":"iteration-batch","activity":"A","batch":[{"element":7,"outputs":{"y":"Z"}},{"element":-3},{"element":0,"inputs":{"x":"a"},"outputs":{"y":"A"}}]},{"seq":3,"type":"activity-completed","activity":"A","outputs":{"y":["A","Z"]}}]`,
		`[{"seq":0,"type":"run-started"},{"seq":1,"type":"activity-scheduled","activity":"A","inputs":{"x":["a","b"]},"elements":2},{"seq":2,"type":"iteration-element","activity":"A","element":0,"inputs":{"x":"a"},"outputs":{"y":"A"}},{"seq":3,"type":"iteration-batch","activity":"A","batch":[{"element":0,"inputs":{"x":"a"},"outputs":{"y":"Z"}},{"element":1,"inputs":{"x":"b"},"outputs":{"y":"B"}}]},{"seq":4,"type":"activity-completed","activity":"A"}]`,
		`[{"seq":0,"type":"run-started"},{"seq":1,"type":"iteration-batch","activity":"B","batch":[{"element":0,"inputs":{"x":"q"},"outputs":{"y":"X"}}]},{"seq":2,"type":"activity-completed","activity":"B"},{"seq":3,"type":"run-finished","status":"completed"}]`,
	} {
		f.Add([]byte(hostile), uint8(0))
		f.Add([]byte(hostile), uint8(2))
	}

	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		var history []workflow.HistoryEvent
		if err := json.Unmarshal(data, &history); err != nil {
			return
		}
		split := int(k) % (len(history) + 1)
		col := NewCollector("curator")
		var stream []Delta
		col.AddSink(sinkFunc(func(d Delta) error {
			stream = append(stream, d)
			return nil
		}))
		col.OnHistoryPrefix(history[:split])
		for _, ev := range history[split:] {
			col.OnHistoryEvent(ev)
		}
		// One delta per live event until the run finishes; the last
		// run-finished one carries the collector's graph.
		finished := slices.ContainsFunc(history[:split], func(ev workflow.HistoryEvent) bool {
			return ev.Type == workflow.HistoryRunFinished
		})
		live := 0
		for _, ev := range history[split:] {
			if finished {
				break
			}
			live++
			finished = ev.Type == workflow.HistoryRunFinished
		}
		if len(stream) != live {
			t.Fatalf("%d deltas for %d live events", len(stream), live)
		}
		g := col.Graph()
		for i, d := range stream {
			if d.History == nil || (d.Kind == DeltaRunFinished) != (d.History.Type == workflow.HistoryRunFinished) {
				t.Fatalf("delta %d: kind %d carries %+v", i, d.Kind, d.History)
			}
			if d.Kind == DeltaRunFinished {
				assertSameGraph(t, g, d.Graph)
			}
		}
		for _, e := range g.Edges() {
			_, effect := g.Node(e.Effect)
			_, cause := g.Node(e.Cause)
			if !effect || !cause {
				t.Fatalf("dangling edge %+v", e)
			}
		}
		if whole, ok := wholes[string(data)]; ok {
			// A split of a real history is a resume: it must arrive at
			// exactly the graph of the unsplit fold, a legal one.
			assertSameGraph(t, whole, g)
			if problems := g.CheckLegality(); len(problems) > 0 {
				t.Fatalf("split %d of a real history folds to an illegal graph: %v", split, problems)
			}
		}
	})
}
