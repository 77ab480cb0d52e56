package provenance

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/opm"
	"repro/internal/workflow"
)

// canonicalRun renders a graph in a run-independent, order-independent form:
// the run ID is scrubbed to "RUN", the wall-clock "duration" annotation is
// dropped, and node/edge lines are sorted. Two runs over the same inputs are
// equivalent iff their canonical forms match — the "byte-identical" contract
// crash-resume is held to.
func canonicalRun(g *opm.Graph, runID string) string {
	scrub := func(s string) string { return strings.ReplaceAll(s, runID, "RUN") }
	var lines []string
	for _, n := range g.Nodes() {
		var anns []string
		for k, v := range n.Annotations {
			if k == "duration" {
				continue
			}
			anns = append(anns, k+"="+scrub(v))
		}
		sort.Strings(anns)
		lines = append(lines, fmt.Sprintf("N|%d|%s|%s|%s|%s",
			n.Kind, scrub(n.ID), scrub(n.Label), scrub(n.Value), strings.Join(anns, ",")))
	}
	for _, e := range g.Edges() {
		lines = append(lines, fmt.Sprintf("E|%d|%s|%s|%s|%s",
			e.Kind, scrub(e.Effect), scrub(e.Cause), e.Role, scrub(e.Account)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func detectionInputs() map[string]workflow.Data {
	return map[string]workflow.Data{"metadata": workflow.List(
		workflow.Scalar("Elachistocleis ovalis"),
		workflow.Scalar("Hyla faber"),
		workflow.Scalar("Scinax fuscomarginatus"),
	)}
}

func TestHistoryPersistsAndReloads(t *testing.T) {
	repo, _ := openRepo(t)
	col := NewCollector("curator")
	w := repo.NewBatchWriter(BatchWriterOptions{})
	col.AddSink(w)
	eng := workflow.NewEventEngine(detectionRegistry())
	eng.Workers = 4
	res, err := eng.Resume(context.Background(), detectionDef(), detectionInputs(), "", nil, col)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	history, err := repo.History(res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) == 0 {
		t.Fatal("no history persisted")
	}
	for i, ev := range history {
		if ev.Seq != i {
			t.Fatalf("history seq gap at %d: %+v", i, ev)
		}
		// The workflow is named once, by run-started.
		if named := ev.WorkflowID != "" || ev.WorkflowName != ""; named != (i == 0) {
			t.Fatalf("event %d names workflow %q/%q", i, ev.WorkflowID, ev.WorkflowName)
		}
	}
	if history[0].Type != workflow.HistoryRunStarted || history[0].WorkflowID != detectionDef().ID {
		t.Fatalf("first event = %+v", history[0])
	}
	last := history[len(history)-1]
	if last.Type != workflow.HistoryRunFinished || last.Status != "completed" {
		t.Fatalf("last event = %+v", last)
	}
	var normDone, elements int
	var fold workflow.HistoryFold
	for _, ev := range history {
		fa := fold.Apply(ev)
		if ev.Activity == "Normalize" {
			switch ev.Type {
			case workflow.HistoryActivityCompleted:
				normDone++
				// The element events hold the collected outputs: the completion
				// stores none, and the fold rebuilds them.
				if clean := fa.Outputs["clean"]; ev.Iterations != 3 || len(ev.Outputs) != 0 || clean.Depth() != 1 || len(clean.Items()) != 3 {
					t.Fatalf("Normalize completion = %+v, folded outputs %v", ev, fa.Outputs)
				}
			case workflow.HistoryIterationElement:
				elements++
			}
		}
	}
	if normDone != 1 || elements != 3 {
		t.Fatalf("Normalize events: %d completions, %d elements", normDone, elements)
	}
	// The reloaded history resumes the (already-finished) run verbatim: no
	// service re-runs, both processors replay, outputs rebuild from history.
	res2, err := workflow.NewEventEngine(detectionRegistry()).Resume(
		context.Background(), detectionDef(), detectionInputs(), res.RunID, history)
	if err != nil {
		t.Fatalf("resume from reloaded history: %v", err)
	}
	if len(res2.Invocations) != 0 || len(res2.Replayed) != 2 {
		t.Fatalf("resume re-ran services: %v %v", res2.Invocations, res2.Replayed)
	}
	if res2.Outputs["summary"].String() != res.Outputs["summary"].String() {
		t.Fatalf("outputs diverged: %q vs %q", res2.Outputs["summary"], res.Outputs["summary"])
	}
}

// TestUnfinishedRunsAndAbandon: the unfinished markers are the running rows,
// and a run is abandoned the way any run ends — its resume writer's terminal
// delta, carrying the graph its history folds to — once: a finished run has
// no writer left to open.
func TestUnfinishedRunsAndAbandon(t *testing.T) {
	repo, _ := openRepo(t)
	now := time.Date(2014, 3, 31, 12, 0, 0, 0, time.UTC)
	for i, st := range []RunStatus{RunRunning, RunCompleted, RunRunning, RunFailed} {
		info := RunInfo{RunID: fmt.Sprintf("run-%d", i), WorkflowID: "wf-x",
			WorkflowName: "X", StartedAt: now, Status: st}
		if st != RunRunning {
			info.FinishedAt = now.Add(time.Minute)
		}
		if err := repo.Store(info, opm.NewGraph()); err != nil {
			t.Fatal(err)
		}
	}
	open, err := repo.UnfinishedRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != 2 {
		t.Fatalf("unfinished = %+v", open)
	}
	w, err := repo.ResumeRunWriter("run-0", BatchWriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	abandoned := open[0]
	abandoned.Status, abandoned.Error, abandoned.FinishedAt = RunAbandoned, "no resume handler", now.Add(time.Hour)
	g := opm.NewGraph()
	if err := g.AddNode(opm.Node{ID: "ag:curator", Kind: opm.KindAgent, Label: "curator"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Emit(Delta{Kind: DeltaRunFinished, Info: abandoned, Graph: g}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := repo.Run("run-0")
	if err != nil {
		t.Fatal(err)
	}
	if info != abandoned {
		t.Fatalf("abandoned info = %+v, want %+v", info, abandoned)
	}
	if stored, err := repo.Graph("run-0"); err != nil || stored.NodeCount() != 1 {
		t.Fatalf("abandoned run's graph = %v, %v", stored, err)
	}
	// Abandoning is single-shot: terminal runs have no writer to reopen.
	for _, id := range []string{"run-0", "run-1"} {
		if _, err := repo.ResumeRunWriter(id, BatchWriterOptions{}); err == nil {
			t.Fatalf("reopened finished run %s", id)
		}
	}
	open, err = repo.UnfinishedRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != 1 || open[0].RunID != "run-2" {
		t.Fatalf("unfinished after abandon = %+v", open)
	}
}

// TestCrashResumeConvergesAtEveryCut is the provenance-layer half of the
// kill-at-every-cut contract, over the cuts of the previous version's stream
// (resumeCut: this version's directory and the previous version's at each):
// every resumed run completes with a graph canonically identical to an
// uninterrupted baseline's, and its StartedAt is the time of its stored
// run-started event (to the microsecond a stored time keeps) — a resume
// never restamps it.
func TestCrashResumeConvergesAtEveryCut(t *testing.T) {
	baseRepo, _ := openRepo(t)
	baseID, _, err := captureRun(t, baseRepo, detectionDef(), detectionInputs(), detectionRegistry(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseG, err := baseRepo.Graph(baseID)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalRun(baseG, baseID)
	history, err := baseRepo.History(baseID)
	if err != nil {
		t.Fatal(err)
	}
	stream := parentStream(t, history)
	if len(stream) < 40 {
		t.Fatalf("suspiciously short stream: %d deltas", len(stream))
	}
	check := func(t *testing.T, repo *Repository, runID string) {
		final, err := repo.Run(runID)
		if err != nil {
			t.Fatal(err)
		}
		if final.Status != RunCompleted {
			t.Fatalf("resumed run status = %q (%s)", final.Status, final.Error)
		}
		stored, err := repo.History(runID)
		if err != nil {
			t.Fatal(err)
		}
		if !final.StartedAt.Equal(stored[0].Time.Truncate(time.Microsecond)) {
			t.Fatalf("StartedAt %v, stored run-started at %v", final.StartedAt, stored[0].Time)
		}
		g, err := repo.Graph(runID)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalRun(g, runID); got != want {
			t.Errorf("resumed graph differs from baseline\nwant:\n%s\ngot:\n%s", want, got)
		}
	}
	for cut := 1; cut < len(stream); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			resumeCut(t, detectionDef(), detectionInputs(), detectionRegistry, 1, history, stream, cut, false, check)
		})
	}
}
