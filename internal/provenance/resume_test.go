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
	res, err := eng.Run(context.Background(), detectionDef(), detectionInputs(), col)
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
	}
	if history[0].Type != workflow.HistoryRunStarted {
		t.Fatalf("first event = %+v", history[0])
	}
	last := history[len(history)-1]
	if last.Type != workflow.HistoryRunFinished || last.Status != "completed" {
		t.Fatalf("last event = %+v", last)
	}
	var normDone, elements int
	for _, ev := range history {
		if ev.Activity == "Normalize" {
			switch ev.Type {
			case workflow.HistoryActivityCompleted:
				normDone++
				if ev.Iterations != 3 || !ev.Outputs["clean"].IsList() {
					t.Fatalf("Normalize completion = %+v", ev)
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

func TestUnfinishedRunsAndMarkAbandoned(t *testing.T) {
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
	if err := repo.MarkAbandoned("run-0", "no resume handler", now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	info, err := repo.Run("run-0")
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != RunAbandoned || info.Error != "no resume handler" || info.FinishedAt.IsZero() {
		t.Fatalf("abandoned info = %+v", info)
	}
	// Abandoning is single-shot: terminal runs are refused.
	if err := repo.MarkAbandoned("run-0", "again", now); err == nil {
		t.Fatal("re-abandon accepted")
	}
	if err := repo.MarkAbandoned("run-1", "completed run", now); err == nil {
		t.Fatal("abandoning a completed run accepted")
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
// kill-at-every-cut contract: cut the delta stream after every prefix length
// 1..N-1, resume by replaying the persisted history through the event
// engine, and require the final graph to be canonically identical to an
// uninterrupted baseline.
func TestCrashResumeConvergesAtEveryCut(t *testing.T) {
	// Baseline: uninterrupted run through a batch writer.
	baseRepo, _ := openRepo(t)
	baseCol := NewCollector("curator")
	baseW := baseRepo.NewBatchWriter(BatchWriterOptions{})
	baseCol.AddSink(baseW)
	baseRes, err := workflow.NewEventEngine(detectionRegistry()).Run(
		context.Background(), detectionDef(), detectionInputs(), baseCol)
	if err != nil {
		t.Fatal(err)
	}
	if err := baseW.Close(); err != nil {
		t.Fatal(err)
	}
	baseG, err := baseRepo.Graph(baseRes.RunID)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalRun(baseG, baseRes.RunID)
	total := int(baseW.Metrics().Enqueued)
	if total < 10 {
		t.Fatalf("suspiciously short stream: %d deltas", total)
	}

	for cut := 1; cut < total; cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			repo, _ := openRepo(t)
			col := NewCollector("curator")
			w := repo.NewBatchWriter(BatchWriterOptions{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			crash := NewCrashSink(w, cut, cancel)
			col.AddSink(crash)
			_, runErr := workflow.NewEventEngine(detectionRegistry()).Run(
				ctx, detectionDef(), detectionInputs(), col)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !crash.Crashed() {
				t.Fatalf("stream of %d deltas never hit cut %d", total, cut)
			}
			runID := col.Info().RunID
			info, err := repo.Run(runID)
			if err != nil {
				t.Fatal(err)
			}
			if info.Status != RunRunning {
				// The cancel landed after the engine already finished; the
				// finalize was dropped regardless, so this cannot happen.
				t.Fatalf("crashed run (engine err %v) has status %q", runErr, info.Status)
			}

			// Resume is replay: feed the persisted history prefix back in.
			history, err := repo.History(runID)
			if err != nil {
				t.Fatal(err)
			}
			prefix, err := repo.Graph(runID)
			if err != nil {
				t.Fatal(err)
			}
			rcol := NewResumeCollector("curator", prefix, info)
			rw, err := repo.NewResumeWriter(runID, BatchWriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rcol.AddSink(rw)
			if _, err := workflow.NewEventEngine(detectionRegistry()).Resume(
				context.Background(), detectionDef(), detectionInputs(), runID, history, rcol); err != nil {
				t.Fatalf("resume after cut %d: %v", cut, err)
			}
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := repo.Run(runID)
			if err != nil {
				t.Fatal(err)
			}
			if final.Status != RunCompleted {
				t.Fatalf("resumed run status = %q (%s)", final.Status, final.Error)
			}
			if !final.StartedAt.Equal(info.StartedAt) {
				t.Fatalf("resume restamped StartedAt: %v -> %v", info.StartedAt, final.StartedAt)
			}
			g, err := repo.Graph(runID)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonicalRun(g, runID); got != want {
				t.Errorf("cut %d: resumed graph differs from baseline\nwant:\n%s\ngot:\n%s", cut, want, got)
			}
		})
	}
}
