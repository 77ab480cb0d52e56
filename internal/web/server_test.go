package web

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/linkeddata"
	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

func testServer(t *testing.T) (*httptest.Server, *System, *taxonomy.Generated) {
	t.Helper()
	sys, err := core.Open(t.TempDir(), core.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 100, OutdatedFraction: 0.07, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{
		Records: 400, Seed: 4, SyntaxErrorRate: 1e-12,
	}, taxa, geo.SyntheticGazetteer(10, 4), envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	wsys := &System{Core: sys, Resolver: taxa.Checklist, Checklist: taxa.Checklist}
	srv := httptest.NewServer(NewServer(wsys))
	t.Cleanup(srv.Close)
	return srv, wsys, taxa
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDashboard(t *testing.T) {
	srv, _, _ := testServer(t)
	code, body := get(t, srv.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"Collection dashboard", "400", "distinct species names"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if code, _ := get(t, srv.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: %d", code)
	}
	if code, body := get(t, srv.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

func seedProvRuns(t *testing.T, sys *core.System, ids ...string) {
	t.Helper()
	started := time.Date(2013, 11, 12, 19, 58, 9, 0, time.UTC)
	for _, id := range ids {
		g := opm.NewGraph()
		if err := g.AddNode(opm.Node{ID: "ag:x", Kind: opm.KindAgent, Label: "x"}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddNode(opm.Node{ID: "p:" + id + "/step", Kind: opm.KindProcess, Label: "step"}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddNode(opm.Node{ID: "a:in", Kind: opm.KindArtifact, Label: "input", Value: "v"}); err != nil {
			t.Fatal(err)
		}
		for _, e := range []opm.Edge{
			{Kind: opm.Used, Effect: "p:" + id + "/step", Cause: "a:in", Role: "in", Account: id},
			{Kind: opm.WasControlledBy, Effect: "p:" + id + "/step", Cause: "ag:x", Role: "executor", Account: id},
		} {
			if err := g.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		info := provenance.RunInfo{RunID: id, WorkflowID: "wf", WorkflowName: "W",
			StartedAt: started, FinishedAt: started.Add(time.Second), Status: provenance.RunCompleted}
		if err := sys.Provenance.Store(info, g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDashboardRunPagination(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a", "run-b", "run-c")
	code, body := get(t, srv.URL+"/?limit=2")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"/provenance/run-a", "/provenance/run-b", `/?after=run-b&limit=2`} {
		if !strings.Contains(body, want) {
			t.Errorf("page 1 missing %q", want)
		}
	}
	if strings.Contains(body, "/provenance/run-c") {
		t.Error("page 1 leaked run-c")
	}
	code, body = get(t, srv.URL+"/?after=run-b&limit=2")
	if code != 200 || !strings.Contains(body, "/provenance/run-c") {
		t.Fatalf("page 2: %d", code)
	}
	if strings.Contains(body, "next page") {
		t.Error("last page offers a next page")
	}
}

func TestProvenanceEdgesPage(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a")
	code, body := get(t, srv.URL+"/provenance/run-a/edges?limit=1")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "p:run-a/step") || !strings.Contains(body, "a:in") {
		t.Errorf("edge row missing: %s", body)
	}
	if !strings.Contains(body, "/provenance/run-a/edges?after=0&limit=1") {
		t.Error("next-page link missing")
	}
	code, body = get(t, srv.URL+"/provenance/run-a/edges?after=0&limit=1")
	if code != 200 || !strings.Contains(body, "ag:x") {
		t.Fatalf("page 2: %d", code)
	}
	if strings.Contains(body, "next page") {
		t.Error("exhausted cursor offers a next page")
	}
	if code, _ := get(t, srv.URL+"/provenance/run-nope/edges"); code != http.StatusNotFound {
		t.Fatalf("edges of unknown run: %d", code)
	}
	if code, _ := get(t, srv.URL+"/provenance/run-a/edges?after=zzz"); code != http.StatusBadRequest {
		t.Fatalf("bad cursor: %d", code)
	}
}

// postDetect runs a detection through the detect page's form: POST /detect,
// whose 303 the client follows to the page.
func postDetect(t *testing.T, srv *httptest.Server) (int, string) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/detect", "application/x-www-form-urlencoded", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDetectPage(t *testing.T) {
	srv, _, _ := testServer(t)
	// Before any run.
	code, body := get(t, srv.URL+"/detect")
	if code != 200 || !strings.Contains(body, "No run yet") || !strings.Contains(body, `<form method="post" action="/detect">`) {
		t.Fatalf("pre-run page: %d\n%s", code, body)
	}
	// Trigger a run (the Fig. 2 page).
	code, body = postDetect(t, srv)
	if code != 200 {
		t.Fatalf("run status %d", code)
	}
	for _, want := range []string{
		"distinct species names in the database",
		"detected as outdated",
		"updated species names",
		`<a href="/review">review queue</a>`,
		"<td class=num>100</td>", // distinct names
	} {
		if !strings.Contains(body, want) {
			t.Errorf("detect page missing %q", want)
		}
	}
	// The quality page now renders the §IV.C report.
	code, body = get(t, srv.URL+"/quality")
	if code != 200 || !strings.Contains(body, "utility index") || !strings.Contains(body, "accuracy") {
		t.Fatalf("quality page: %d", code)
	}
	// Dashboard lists the run with a provenance link.
	_, dash := get(t, srv.URL+"/")
	if !strings.Contains(dash, "/provenance/run-") {
		t.Fatal("dashboard missing provenance link")
	}
}

func TestRecordsSearchAndDetail(t *testing.T) {
	srv, wsys, _ := testServer(t)
	// Pick a real species.
	var species, id string
	wsys.Core.Records.Scan(func(r *fnjv.Record) bool {
		species, id = r.Species, r.ID
		return false
	})
	code, body := get(t, srv.URL+"/records?species="+strings.ReplaceAll(species, " ", "+"))
	if code != 200 || !strings.Contains(body, id) {
		t.Fatalf("search: %d, missing %s", code, id)
	}
	// Empty search form renders without results.
	code, body = get(t, srv.URL+"/records")
	if code != 200 || strings.Contains(body, "results") {
		t.Fatalf("empty search: %d", code)
	}
	// Record detail.
	code, body = get(t, srv.URL+"/record/"+id)
	if code != 200 || !strings.Contains(body, species) || !strings.Contains(body, "curated (current) name") {
		t.Fatalf("record page: %d", code)
	}
	if code, _ := get(t, srv.URL+"/record/FNJV-99999"); code != http.StatusNotFound {
		t.Fatalf("missing record: %d", code)
	}
}

func TestRecordPageShowsUpdates(t *testing.T) {
	srv, wsys, taxa := testServer(t)
	// Run detection so updates exist.
	if code, _ := postDetect(t, srv); code != 200 {
		t.Fatal("run failed")
	}
	// Find a record with an outdated name.
	var target string
	wsys.Core.Records.Scan(func(r *fnjv.Record) bool {
		if taxa.OutdatedNames[r.Species] {
			target = r.ID
			return false
		}
		return true
	})
	if target == "" {
		t.Skip("no outdated record in sample")
	}
	code, body := get(t, srv.URL+"/record/"+target)
	if code != 200 || !strings.Contains(body, "name updates (original record unchanged)") {
		t.Fatalf("record with updates: %d", code)
	}
	if !strings.Contains(body, "pending") {
		t.Fatal("update review state missing")
	}
}

func TestReviewQueueUI(t *testing.T) {
	srv, wsys, _ := testServer(t)
	// Empty queue.
	code, body := get(t, srv.URL+"/review")
	if code != 200 || !strings.Contains(body, "0 updates pending") {
		t.Fatalf("empty queue: %d", code)
	}
	// After detection there are pending updates.
	postDetect(t, srv)
	code, body = get(t, srv.URL+"/review")
	if code != 200 || strings.Contains(body, "0 updates pending") {
		t.Fatalf("queue after run: %d", code)
	}
	if !strings.Contains(body, "approve") || !strings.Contains(body, "reject") {
		t.Fatal("review controls missing")
	}
	pending, err := wsys.Core.Ledger.Pending()
	if err != nil || len(pending) == 0 {
		t.Fatalf("pending: %v %d", err, len(pending))
	}
	// Approve one via the form endpoint.
	resp, err := http.PostForm(srv.URL+"/review/act",
		map[string][]string{"id": {pending[0].ID}, "verdict": {"approved"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK { // after redirect to /review
		t.Fatalf("approve status %d", resp.StatusCode)
	}
	u, err := wsys.Core.Ledger.Update(pending[0].ID)
	if err != nil || u.Review != "approved" {
		t.Fatalf("verdict not recorded: %+v %v", u, err)
	}
	// Approved rename entered the history.
	hist, err := wsys.Core.Ledger.History(pending[0].RecordID)
	if err != nil || len(hist) == 0 {
		t.Fatalf("history: %v %d", err, len(hist))
	}
	// Reject another.
	resp, err = http.PostForm(srv.URL+"/review/act",
		map[string][]string{"id": {pending[1].ID}, "verdict": {"rejected"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	u, _ = wsys.Core.Ledger.Update(pending[1].ID)
	if u.Review != "rejected" {
		t.Fatalf("reject not recorded: %+v", u)
	}
	// Bad requests.
	if code, _ := get(t, srv.URL+"/review/act"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET act: %d", code)
	}
	resp, _ = http.PostForm(srv.URL+"/review/act", map[string][]string{"id": {"UPD-999999"}, "verdict": {"approved"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing update act: %d", resp.StatusCode)
	}
	resp, _ = http.PostForm(srv.URL+"/review/act", map[string][]string{"id": {pending[0].ID}, "verdict": {"approved"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest { // already resolved
		t.Fatalf("double act: %d", resp.StatusCode)
	}
}

func TestProvenanceExport(t *testing.T) {
	srv, wsys, _ := testServer(t)
	postDetect(t, srv)
	runs, err := wsys.Core.Provenance.AllRuns()
	if err != nil || len(runs) == 0 {
		t.Fatal("no runs")
	}
	code, body := get(t, srv.URL+"/provenance/"+runs[0].RunID)
	if code != 200 || !strings.Contains(body, "<opmGraph>") || !strings.Contains(body, "Catalog_of_life") {
		t.Fatalf("provenance export: %d", code)
	}
	if code, _ := get(t, srv.URL+"/provenance/run-999999"); code != http.StatusNotFound {
		t.Fatalf("missing run export: %d", code)
	}
}

func TestCollectionHealthPage(t *testing.T) {
	srv, _, _ := testServer(t)
	code, body := get(t, srv.URL+"/health")
	if code != 200 {
		t.Fatalf("health page: %d", code)
	}
	for _, want := range []string{"Collection health", "georeferenced", "completeness", "consistency", "utility index"} {
		if !strings.Contains(body, want) {
			t.Errorf("health page missing %q", want)
		}
	}
}

func TestNTriplesExport(t *testing.T) {
	srv, _, _ := testServer(t)
	code, body := get(t, srv.URL+"/export/ntriples")
	if code != 200 {
		t.Fatalf("export: %d", code)
	}
	// One recording per record; linkeddata's tests check that what
	// WriteNTriples writes parses back.
	typed := " " + linkeddata.IRI(linkeddata.RDFType).NTriples() + " " + linkeddata.IRI(linkeddata.TypeRecording).NTriples() + " .\n"
	if recs := strings.Count(body, typed); recs != 400 {
		t.Fatalf("exported %d recordings, want 400", recs)
	}
}

// TestArchivePagesWithoutStore pins that the archive pages are gone: no
// program configures an archival store, so /archive is an unknown page.
func TestArchivePagesWithoutStore(t *testing.T) {
	srv, _, _ := testServer(t)
	for _, path := range []string{"/archive", "/archive/abc"} {
		if code, body := get(t, srv.URL+path); code != 404 {
			t.Fatalf("GET %s = %d, want 404:\n%s", path, code, body)
		}
	}
}

type metricsObs struct {
	ID           string             `json:"id"`
	Entity       string             `json:"entity"`
	Protocol     string             `json:"protocol"`
	Measurements map[string]float64 `json:"measurements"`
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _, _ := testServer(t)
	if code, _ := postDetect(t, srv); code != 200 {
		t.Fatal("POST /detect failed")
	}

	code, body := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	var out []metricsObs
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("metrics is not JSON: %v\n%s", err, body)
	}
	got := map[string]metricsObs{}
	for _, o := range out {
		got[strings.TrimPrefix(o.Entity, "subsystem:")] = o
	}
	for _, want := range []string{"recovery", "workers", "admission-queue"} {
		if _, ok := got[want]; !ok {
			t.Fatalf("metrics missing subsystem %q; have %v", want, body)
		}
	}
	// The engine and provenance-writer rows showed whichever run finished
	// last; they are gone, as is the archive scrubber's.
	for _, gone := range []string{"engine", "provenance-writer", "archive-scrubber"} {
		if _, ok := got[gone]; ok {
			t.Fatalf("metrics still has a %s row: %v", gone, body)
		}
	}
	if w := got["workers"]; w.Protocol == "" || w.ID == "" || len(w.Measurements) == 0 {
		t.Fatalf("observation shape: %+v", w)
	}
}

// TestDetectGetStartsNoRun: only a POST starts a detection. GET
// /detect?run=1 — what the pages once linked to, and what a prefetcher or
// crawler follows — renders the page and writes nothing; POST /detect runs
// one detection and answers 303 to GET /detect.
func TestDetectGetStartsNoRun(t *testing.T) {
	srv, wsys, _ := testServer(t)
	if code, _ := get(t, srv.URL+"/detect?run=1"); code != 200 {
		t.Fatalf("GET /detect?run=1 = %d", code)
	}
	if runs, err := wsys.Core.Provenance.AllRuns(); err != nil || len(runs) != 0 {
		t.Fatalf("GET /detect?run=1 stored runs %+v (%v), want none", runs, err)
	}
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Post(srv.URL+"/detect", "application/x-www-form-urlencoded", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther || resp.Header.Get("Location") != "/detect" {
		t.Fatalf("POST /detect = %d to %q, want 303 to /detect", resp.StatusCode, resp.Header.Get("Location"))
	}
	if runs, err := wsys.Core.CompletedDetections(""); err != nil || len(runs) != 1 {
		t.Fatalf("POST /detect completed %+v (%v), want one run", runs, err)
	}
}
