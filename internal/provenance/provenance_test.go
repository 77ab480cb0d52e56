package provenance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/opm"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// detectionDef builds a two-step pipeline shaped like the case study:
// metadata -> normalize -> resolve -> summary.
func detectionDef() *workflow.Definition {
	d := &workflow.Definition{
		ID: "wf-detect", Name: "Outdated Species Name Detection",
		Inputs:  []workflow.Port{{Name: "metadata"}},
		Outputs: []workflow.Port{{Name: "summary"}},
		Processors: []*workflow.Processor{
			{Name: "Normalize", Service: "normalize",
				Inputs:  []workflow.Port{{Name: "raw"}},
				Outputs: []workflow.Port{{Name: "clean"}}},
			{Name: "Catalog_of_life", Service: "resolve",
				Inputs:  []workflow.Port{{Name: "name"}},
				Outputs: []workflow.Port{{Name: "status"}}},
		},
		Links: []workflow.Link{
			{Source: workflow.Endpoint{Port: "metadata"}, Target: workflow.Endpoint{Processor: "Normalize", Port: "raw"}},
			{Source: workflow.Endpoint{Processor: "Normalize", Port: "clean"}, Target: workflow.Endpoint{Processor: "Catalog_of_life", Port: "name"}},
			{Source: workflow.Endpoint{Processor: "Catalog_of_life", Port: "status"}, Target: workflow.Endpoint{Port: "summary"}},
		},
	}
	when := time.Date(2013, 11, 12, 19, 58, 9, 0, time.UTC)
	d.AnnotateProcessor("Catalog_of_life", workflow.QualityKey("reputation"), "1", "expert", when)
	d.AnnotateProcessor("Catalog_of_life", workflow.QualityKey("availability"), "0.9", "expert", when)
	return d
}

func detectionRegistry() *workflow.Registry {
	reg := workflow.NewRegistry()
	reg.Register("normalize", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		return map[string]workflow.Data{"clean": workflow.Scalar(strings.TrimSpace(c.Input("raw").String()))}, nil
	})
	reg.Register("resolve", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		name := c.Input("name").String()
		status := "accepted"
		if name == "Elachistocleis ovalis" {
			status = "outdated"
		}
		return map[string]workflow.Data{"status": workflow.Scalar(name + "=" + status)}, nil
	})
	return reg
}

func runCaptured(t *testing.T, input string) (*Collector, *workflow.RunResult) {
	t.Helper()
	col := NewCollector("curator")
	res, err := workflow.NewEventEngine(detectionRegistry()).Resume(
		context.Background(), detectionDef(),
		map[string]workflow.Data{"metadata": workflow.Scalar(input)}, "", nil, col)
	if err != nil {
		t.Fatal(err)
	}
	return col, res
}

func TestCollectorBuildsGraph(t *testing.T) {
	col, res := runCaptured(t, " Elachistocleis ovalis ")
	g := col.Graph()
	info := col.Info()
	if info.Status != RunCompleted || info.RunID != res.RunID {
		t.Fatalf("info = %+v", info)
	}
	if info.WorkflowName != "Outdated Species Name Detection" {
		t.Fatalf("workflow name = %q", info.WorkflowName)
	}
	// Two processes, one agent, ≥3 artifacts (raw, clean, status).
	if got := len(nodesOfKind(g, opm.KindProcess)); got != 2 {
		t.Fatalf("process nodes = %d", got)
	}
	if got := len(nodesOfKind(g, opm.KindAgent)); got != 1 {
		t.Fatalf("agent nodes = %d", got)
	}
	if got := len(nodesOfKind(g, opm.KindArtifact)); got < 3 {
		t.Fatalf("artifact nodes = %d", got)
	}
	// The quality annotations were merged onto the resolver process node.
	pn, ok := g.Node("p:" + res.RunID + "/Catalog_of_life")
	if !ok {
		t.Fatal("resolver process node missing")
	}
	if pn.Annotations["quality.reputation"] != "1" || pn.Annotations["quality.availability"] != "0.9" {
		t.Fatalf("quality annotations = %v", pn.Annotations)
	}
	if pn.Annotations["service"] != "resolve" || pn.Annotations["iterations"] != "1" {
		t.Fatalf("provenance annotations = %v", pn.Annotations)
	}
	// The graph is legal and the summary artifact derives from the input.
	if probs := g.CheckLegality(); len(probs) != 0 {
		t.Fatalf("illegal graph: %v", probs)
	}
	sumArt := artifactID(res.Outputs["summary"])
	if _, ok := g.Node(sumArt); !ok {
		t.Fatal("no summary artifact")
	}
	if anc := ancestors(g, sumArt); len(anc) < 4 { // input + intermediate + 2 processes (+ agent)
		t.Fatalf("ancestors of summary = %v", anc)
	}
	// Derivation chain exists end-to-end.
	inputArt := artifactID(workflow.Scalar(" Elachistocleis ovalis "))
	if path := derivationPath(g, sumArt, inputArt); len(path) != 3 {
		t.Fatalf("derivation path = %v", path)
	}
	// wasTriggeredBy inferred between the two processes.
	trigs := edgesOfKind(g, opm.WasTriggeredBy)
	if len(trigs) != 1 || trigs[0].Effect != "p:"+res.RunID+"/Catalog_of_life" {
		t.Fatalf("triggers = %+v", trigs)
	}
	// Agent controls both processes.
	if got := causesOf(g, opm.WasControlledBy, "p:"+res.RunID+"/Normalize"); len(got) != 1 || got[0] != "ag:curator" {
		t.Fatalf("controllers = %v", got)
	}
}

func TestCollectorFailedRun(t *testing.T) {
	reg := detectionRegistry()
	reg.Register("resolve", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		return nil, errors.New("authority down")
	})
	col := NewCollector("")
	_, err := workflow.NewEventEngine(reg).Resume(context.Background(), detectionDef(),
		map[string]workflow.Data{"metadata": workflow.Scalar("X y")}, "", nil, col)
	if err == nil {
		t.Fatal("run succeeded")
	}
	info := col.Info()
	if info.Status != RunFailed || !strings.Contains(info.Error, "authority down") {
		t.Fatalf("info = %+v", info)
	}
	// The failed process node carries the error annotation.
	pn, ok := col.Graph().Node("p:" + info.RunID + "/Catalog_of_life")
	if !ok {
		t.Fatal("failed process node missing")
	}
	if !strings.Contains(pn.Annotations["error"], "authority down") {
		t.Fatalf("error annotation = %v", pn.Annotations)
	}
	if col.Agent != "workflow-engine" {
		t.Fatalf("default agent = %q", col.Agent)
	}
}

func TestArtifactSharing(t *testing.T) {
	// The same datum used twice maps to a single artifact node.
	col, res := runCaptured(t, "Hyla faber")
	g := col.Graph()
	// "Hyla faber" is both the raw input and (after TrimSpace) the clean
	// value — identical strings, so one artifact.
	id := artifactID(workflow.Scalar("Hyla faber"))
	if _, ok := g.Node(id); !ok {
		t.Fatal("shared artifact missing")
	}
	users := effectsOf(g, opm.Used, id)
	if len(users) != 2 {
		t.Fatalf("shared artifact used by %v", users)
	}
	_ = res
}

func TestTruncateLongValues(t *testing.T) {
	long := strings.Repeat("x", 1000)
	col := NewCollector("a")
	col.OnHistoryEvent(workflow.HistoryEvent{Type: workflow.HistoryRunStarted, RunID: "r", Time: time.Now(),
		Inputs: map[string]workflow.Data{"in": workflow.Scalar(long)}})
	n, ok := col.Graph().Node(artifactID(workflow.Scalar(long)))
	if !ok {
		t.Fatal("artifact missing")
	}
	if len(n.Value) > maxArtifactValue+4 {
		t.Fatalf("value not truncated: %d bytes", len(n.Value))
	}
}

// TestTruncateKeepsRunesWhole: a value whose byte 256 falls inside a
// multi-byte character is cut before that character, so the stored value is
// valid UTF-8 and survives the OPM XML export unchanged.
func TestTruncateKeepsRunesWhole(t *testing.T) {
	if got, want := truncate(strings.Repeat("x", 1000)), strings.Repeat("x", maxArtifactValue)+"…"; got != want {
		t.Fatalf("ASCII cut = %q", got)
	}
	long := strings.Repeat("x", maxArtifactValue-1) + "é…" + strings.Repeat("y", 10)
	col := NewCollector("a")
	col.OnHistoryEvent(workflow.HistoryEvent{Type: workflow.HistoryRunStarted, RunID: "r", Time: time.Now(),
		Inputs: map[string]workflow.Data{"in": workflow.Scalar(long)}})
	g := col.Graph()
	id := artifactID(workflow.Scalar(long))
	n, ok := g.Node(id)
	if !ok {
		t.Fatal("artifact missing")
	}
	if want := strings.Repeat("x", maxArtifactValue-1) + "…"; n.Value != want {
		t.Fatalf("value cut to %q, want %q", n.Value, want)
	}
	back, err := opm.UnmarshalXML(opm.MarshalXML(g))
	if err != nil {
		t.Fatal(err)
	}
	if bn, _ := back.Node(id); bn == nil || bn.Value != n.Value {
		t.Fatalf("value changed over XML: %+v", bn)
	}
}

func openRepo(t *testing.T) (*Repository, *storage.DB) {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	repo, err := NewRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	return repo, db
}

func TestRepositoryStoreAndReload(t *testing.T) {
	repo, _ := openRepo(t)
	col, res := runCaptured(t, "Elachistocleis ovalis")
	if err := repo.Store(col.Info(), col.Graph()); err != nil {
		t.Fatal(err)
	}
	info, err := repo.Run(res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != RunCompleted || info.WorkflowID != "wf-detect" {
		t.Fatalf("reloaded info = %+v", info)
	}
	if info.FinishedAt.IsZero() || info.FinishedAt.Before(info.StartedAt) {
		t.Fatalf("timestamps = %+v", info)
	}
	g, err := repo.Graph(res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	orig := col.Graph()
	if g.NodeCount() != orig.NodeCount() || g.EdgeCount() != orig.EdgeCount() {
		t.Fatalf("graph reload: %d/%d nodes, %d/%d edges",
			g.NodeCount(), orig.NodeCount(), g.EdgeCount(), orig.EdgeCount())
	}
	// Quality annotations survive the round trip.
	q, err := repo.QualityOfProcess(res.RunID, "Catalog_of_life")
	if err != nil {
		t.Fatal(err)
	}
	if q["reputation"] != "1" || q["availability"] != "0.9" {
		t.Fatalf("quality = %v", q)
	}
	// Lineage still works on the reloaded graph.
	if anc := ancestors(g, artifactID(res.Outputs["summary"])); len(anc) < 4 {
		t.Fatalf("ancestors after reload = %v", anc)
	}
}

func TestRepositoryQueries(t *testing.T) {
	repo, _ := openRepo(t)
	for i := 0; i < 3; i++ {
		col, _ := runCaptured(t, "Hyla faber")
		if err := repo.Store(col.Info(), col.Graph()); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := repo.Runs("wf-detect")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	if all, err := repo.AllRuns(); err != nil || len(all) != 3 {
		t.Fatalf("AllRuns = %d, %v", len(all), err)
	}
	if _, err := repo.Run("run-does-not-exist"); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("missing run: %v", err)
	}
	if _, err := repo.Graph("run-does-not-exist"); !errors.Is(err, ErrRunNotFound) {
		t.Fatalf("missing graph: %v", err)
	}
	if _, err := repo.QualityOfProcess(runs[0].RunID, "NoSuchProc"); err == nil {
		t.Fatal("quality of missing processor succeeded")
	}
	// Duplicate store is rejected (atomic batch).
	col, _ := runCaptured(t, "Hyla faber")
	if err := repo.Store(col.Info(), col.Graph()); err != nil {
		t.Fatal(err)
	}
	if err := repo.Store(col.Info(), col.Graph()); err == nil {
		t.Fatal("duplicate run stored")
	}
	if err := repo.Store(RunInfo{}, opm.NewGraph()); err == nil {
		t.Fatal("run without ID stored")
	}
}

func TestRepositorySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := NewRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	col, res := runCaptured(t, "Hyla faber")
	if err := repo.Store(col.Info(), col.Graph()); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := storage.Open(dir, storage.Options{Sync: storage.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	repo2, err := NewRepository(db2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := repo2.Graph(res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() == 0 {
		t.Fatal("graph lost across reopen")
	}
}

func TestPerElementProvenance(t *testing.T) {
	// Feed a list through the detection pipeline: each element's result must
	// trace back to its own input name.
	col := NewCollector("curator")
	input := workflow.List(
		workflow.Scalar("Elachistocleis ovalis"),
		workflow.Scalar("Hyla faber"),
	)
	_, err := workflow.NewEventEngine(detectionRegistry()).Resume(
		context.Background(), detectionDef(),
		map[string]workflow.Data{"metadata": input}, "", nil, col)
	if err != nil {
		t.Fatal(err)
	}
	g := col.Graph()
	// The per-element result of the resolver for "Hyla faber" derives from
	// the element "Hyla faber" (not from the whole list).
	elemIn := artifactID(workflow.Scalar("Hyla faber"))
	elemOut := artifactID(workflow.Scalar("Hyla faber=accepted"))
	path := derivationPath(g, elemOut, elemIn)
	if len(path) == 0 {
		t.Fatal("no element-level derivation path")
	}
	// And the other element's result must NOT derive from this input.
	otherOut := artifactID(workflow.Scalar("Elachistocleis ovalis=outdated"))
	if p := derivationPath(g, otherOut, elemIn); p != nil {
		t.Fatalf("cross-element contamination: %v", p)
	}
	// Graph still legal.
	if probs := g.CheckLegality(); len(probs) != 0 {
		t.Fatalf("illegal: %v", probs)
	}
}

func TestPerElementProvenanceCap(t *testing.T) {
	col := NewCollector("x")
	col.MaxElements = 2
	items := make([]workflow.Data, 5)
	for i := range items {
		items[i] = workflow.Scalar(fmt.Sprintf("Generated name%d", i))
	}
	_, err := workflow.NewEventEngine(detectionRegistry()).Resume(
		context.Background(), detectionDef(),
		map[string]workflow.Data{"metadata": workflow.List(items...)}, "", nil, col)
	if err != nil {
		t.Fatal(err)
	}
	// Only the first 2 elements got derivation edges per processor; the
	// others appear solely inside lists.
	g := col.Graph()
	elem3Out := artifactID(workflow.Scalar("Generated name3=accepted"))
	if _, ok := g.Node(elem3Out); ok {
		// The node may exist via the resolve stage inputs of Summarize? No:
		// Summarize consumes the whole list, not elements. It must be absent.
		t.Fatal("element beyond cap was materialized")
	}
	// Disabled entirely with negative cap.
	col2 := NewCollector("x")
	col2.MaxElements = -1
	_, err = workflow.NewEventEngine(detectionRegistry()).Resume(
		context.Background(), detectionDef(),
		map[string]workflow.Data{"metadata": workflow.List(items...)}, "", nil, col2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := col2.Graph().Node(artifactID(workflow.Scalar("Generated name0=accepted"))); ok {
		t.Fatal("element provenance not disabled")
	}
}

func TestRunsUsingArtifact(t *testing.T) {
	repo, _ := openRepo(t)
	// Two runs over the same input datum share the input artifact.
	col1, _ := runCaptured(t, "Hyla faber")
	col2, _ := runCaptured(t, "Hyla faber")
	col3, _ := runCaptured(t, "Scinax fuscomarginatus")
	for _, c := range []*Collector{col1, col2, col3} {
		if err := repo.Store(c.Info(), c.Graph()); err != nil {
			t.Fatal(err)
		}
	}
	shared := artifactID(workflow.Scalar("Hyla faber"))
	runs, err := repo.RunsUsingArtifact(shared)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs using shared artifact = %v", runs)
	}
	if runs[0] > runs[1] {
		t.Fatal("unsorted runs")
	}
	other := artifactID(workflow.Scalar("Scinax fuscomarginatus"))
	runs, err = repo.RunsUsingArtifact(other)
	if err != nil || len(runs) != 1 {
		t.Fatalf("runs using other artifact = %v, %v", runs, err)
	}
	if got, _ := repo.RunsUsingArtifact("a:none"); len(got) != 0 {
		t.Fatalf("phantom artifact used by %v", got)
	}
}

func TestAnnotationCodec(t *testing.T) {
	m := map[string]string{"b": "2", "a": "1", "quality.accuracy": "0.93"}
	var enc annEncoder
	got, err := decodeAnnotations(enc.Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got["a"] != "1" || got["quality.accuracy"] != "0.93" {
		t.Fatalf("round trip = %v", got)
	}
	if got, err := decodeAnnotations(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty decode = %v, %v", got, err)
	}
	if _, err := decodeAnnotations([]byte{0xFF, 0xFF}); err == nil {
		t.Fatal("garbage annotations accepted")
	}
}

// FuzzDecodeAnnotations: arbitrary bytes never panic decodeAnnotations, and
// whatever it decodes annEncoder writes back byte for byte — it accepts only
// what the encoder can have written. The empty blob is a NULL cell.
func FuzzDecodeAnnotations(f *testing.F) {
	var enc annEncoder
	f.Add([]byte{})
	f.Add(enc.Encode(nil))
	f.Add(enc.Encode(perfAnnotations()))
	f.Add(storage.EncodeRow(nil, storage.Row{storage.I(1), storage.I(2), storage.S("k"), storage.Null()}))
	f.Add(storage.EncodeRow(nil, storage.Row{storage.S("b"), storage.S("1"), storage.S("a"), storage.S("2")}))
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := decodeAnnotations(blob)
		if err != nil || len(blob) == 0 {
			return
		}
		var enc annEncoder
		if got := enc.Encode(m); !bytes.Equal(got, blob) {
			t.Fatalf("%x decodes to %q, which encodes to %x", blob, m, got)
		}
	})
}
