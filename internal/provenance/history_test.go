package provenance

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/opm"
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
	_, runErr := eng.Run(ctx, def, inputs, col)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return col.Info().RunID, int(w.Metrics().Enqueued), runErr
}

// resumeRun resumes an interrupted run the way core does: the persisted
// history replays through the engine, the persisted graph preloads the
// collector, and a resume writer appends what is missing.
func resumeRun(t *testing.T, repo *Repository, runID string, def *workflow.Definition,
	inputs map[string]workflow.Data, reg *workflow.Registry, workers int) error {
	t.Helper()
	info, err := repo.Run(runID)
	if err != nil {
		t.Fatal(err)
	}
	history, err := repo.History(runID)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := repo.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	col := NewResumeCollector("curator", prefix, info)
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

// withoutClock copies g minus what the wall clock stamps — edge times and the
// "duration" annotation — keeping edge order. A crash cut inside one event's
// deltas legitimately re-stamps those when the event is re-derived.
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
	gs := NewGraphSink()
	col.AddSink(gs)
	for _, ev := range history {
		col.OnHistoryEvent(ev)
	}
	if err := col.SinkErr(); err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, withoutClock(t, gs.Graph()), withoutClock(t, stored))
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
// not of how often the run was interrupted, at which delta, on how many
// workers, or in which order Go ranges over a port map. Every cut of the
// delta stream is resumed through a resume writer, then the stored graph is
// compared, edge for edge in stored order, with a fresh fold of the stored
// history, and canonically with the uninterrupted run. The failing case cuts
// and resumes a run whose two-input processor fails on one element, so every
// prefix that ends past an activity-failed event is covered too.
func TestGraphIsAFunctionOfHistory(t *testing.T) {
	def, inputs := pairDef(), detectionInputs()
	for _, failing := range []bool{false, true} {
		baseRepo, _ := openRepo(t)
		baseID, total, err := captureRun(t, baseRepo, def, inputs, pairRegistry(failing), 1, nil)
		if (err != nil) != failing {
			t.Fatalf("uninterrupted run error = %v", err)
		}
		want := canonicalRun(assertGraphIsFoldOfHistory(t, baseRepo, baseID), baseID)
		if total < 40 {
			t.Fatalf("suspiciously short stream: %d deltas", total)
		}

		for _, workers := range []int{1, 4} {
			for cut := 1; cut < total; cut++ {
				t.Run(fmt.Sprintf("failing=%v/workers=%d/cut=%d", failing, workers, cut), func(t *testing.T) {
					repo, _ := openRepo(t)
					// (A cut run may fail or — cut inside its last event — finish.)
					runID, _, _ := captureRun(t, repo, def, inputs, pairRegistry(failing), workers,
						func(w Sink, cancel context.CancelFunc) Sink { return NewCrashSink(w, cut, cancel) })
					if info, err := repo.Run(runID); err != nil {
						t.Fatal(err)
					} else if info.Status == RunRunning {
						if err := resumeRun(t, repo, runID, def, inputs, pairRegistry(failing), workers); (err != nil) != failing {
							t.Fatalf("resume error = %v", err)
						}
					}
					// (A failing run on several workers can close in fewer
					// deltas than the cut: then it finished, and only the
					// comparisons apply.)
					g := assertGraphIsFoldOfHistory(t, repo, runID)
					if got := canonicalRun(g, runID); got != want {
						t.Errorf("graph differs from the uninterrupted run\nwant:\n%s\ngot:\n%s", want, got)
					}
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
// completions — the Collector never panics and never emits an edge or an
// annotation naming a node it has not emitted (GraphSink refuses those). For
// a split of a real run's history the split is a resume, and it must arrive
// at exactly the graph of the unsplit fold, a legal one. (A hostile history
// can make two activities generate one content-addressed artifact; that
// illegality is the input's.)
func FuzzCollectorHistory(f *testing.F) {
	var real []workflow.HistoryEvent
	if _, err := workflow.NewEventEngine(detectionRegistry()).Run(context.Background(), detectionDef(), detectionInputs(),
		workflow.HistoryListenerFunc(func(ev workflow.HistoryEvent) { real = append(real, ev) })); err != nil {
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
	for _, hostile := range []string{
		`[{"seq":0,"type":"run-started"},{"seq":1,"type":"activity-scheduled","activity":"A","inputs":{"x":["a","b"]},"elements":2},{"seq":2,"type":"iteration-element","activity":"A","element":7,"outputs":{"y":"Z"}},{"seq":3,"type":"iteration-element","activity":"A","element":-3},{"seq":4,"type":"activity-completed","activity":"A","outputs":{"y":["Z"]}}]`,
		`[{"seq":0,"type":"run-started"},{"seq":1,"type":"run-finished","status":"completed","outputs":{"out":"X"}},{"seq":2,"type":"activity-scheduled","activity":"A"},{"seq":3,"type":"activity-completed","activity":"A","outputs":{"y":"X"}}]`,
		`[{"seq":0,"type":"activity-completed","activity":"nope","outputs":{"y":"X"}}]`,
		`[{"seq":-5,"type":"run-started"},{"seq":-5,"type":"activity-completed","activity":"B","iterations":1,"outputs":{"y":[["deep"]]}},{"seq":-5,"type":"activity-failed","activity":"A"},{"seq":-5,"type":"activity-completed","activity":"B","outputs":{"y":"again"}}]`,
		`[{"seq":1,"type":"activity-completed","activity":"A","outputs":{}},{"seq":2,"type":"run-finished","status":"failed","error":"x"},{"seq":3,"type":"run-started"}]`,
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
		isReal := bytes.Equal(data, realBlob)
		col := NewCollector("curator")
		if isReal {
			// A resume: the collector starts from the graph the prefix implies.
			pre := NewCollector("curator")
			for _, ev := range history[:split] {
				pre.OnHistoryEvent(ev)
			}
			col = NewResumeCollector("curator", pre.Graph(), pre.Info())
		} else {
			col.AddSink(NewGraphSink())
		}
		col.OnHistoryPrefix(history[:split])
		for _, ev := range history[split:] {
			col.OnHistoryEvent(ev)
		}
		if err := col.SinkErr(); err != nil {
			t.Fatalf("emitted a delta its own stream does not support: %v", err)
		}
		if isReal {
			g := col.Graph()
			assertSameGraph(t, whole.Graph(), g)
			if problems := g.CheckLegality(); len(problems) > 0 {
				t.Fatalf("split %d of a real history folds to an illegal graph: %v", split, problems)
			}
		}
	})
}
