package web

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/opm"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/telemetry"
)

// getResp performs a GET returning the full response (for header checks).
func getResp(t *testing.T, url string, headers map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeJSON asserts status and Content-Type, then decodes the body into v.
func decodeJSON(t *testing.T, resp *http.Response, wantStatus int, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

// wantEnvelope asserts the uniform error envelope shape and code.
func wantEnvelope(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	var body errorBody
	decodeJSON(t, resp, status, &body)
	if body.Error.Code != code {
		t.Fatalf("error code %q, want %q", body.Error.Code, code)
	}
	if body.Error.Message == "" {
		t.Fatal("error envelope without a message")
	}
}

func TestAPIRunsPagination(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a", "run-b", "run-c")

	var page struct {
		Runs []struct {
			RunID  string            `json:"run_id"`
			Status string            `json:"status"`
			Links  map[string]string `json:"links"`
		} `json:"runs"`
		NextCursor string `json:"next_cursor"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs?limit=2", nil), 200, &page)
	if len(page.Runs) != 2 || page.Runs[0].RunID != "run-a" || page.Runs[1].RunID != "run-b" {
		t.Fatalf("page 1: %+v", page.Runs)
	}
	if page.NextCursor != "run-b" {
		t.Fatalf("next_cursor %q, want run-b", page.NextCursor)
	}
	if page.Runs[0].Links["trace"] != "/api/v1/runs/run-a/trace" {
		t.Fatalf("trace link: %q", page.Runs[0].Links["trace"])
	}
	page.Runs, page.NextCursor = nil, ""
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs?limit=2&after=run-b", nil), 200, &page)
	if len(page.Runs) != 1 || page.Runs[0].RunID != "run-c" || page.NextCursor != "" {
		t.Fatalf("page 2: %+v next=%q", page.Runs, page.NextCursor)
	}

	// Hardened limit parsing: zero, negative, junk, and oversized limits are
	// 400s with the envelope — never silently clamped.
	for _, bad := range []string{"0", "-1", "zzz", "501", "99999999999999999999"} {
		wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs?limit="+bad, nil), http.StatusBadRequest, "bad_request")
	}
}

func TestAPIRunDetailAndErrors(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a")

	var run struct {
		RunID      string `json:"run_id"`
		Status     string `json:"status"`
		WorkflowID string `json:"workflow_id"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs/run-a", nil), 200, &run)
	if run.RunID != "run-a" || run.Status != "completed" || run.WorkflowID != "wf" {
		t.Fatalf("run detail: %+v", run)
	}

	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs/run-nope", nil), http.StatusNotFound, "not_found")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs/run-a/bogus", nil), http.StatusNotFound, "not_found")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/zzz", nil), http.StatusNotFound, "not_found")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs/run-a/edges?after=zzz", nil), http.StatusBadRequest, "bad_request")

	// Method gating: writes to read-only resources are 405s.
	resp, err := http.Post(srv.URL+"/api/v1/runs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, resp, http.StatusMethodNotAllowed, "method_not_allowed")
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("Allow header %q", allow)
	}
}

func TestAPIRunGraphETag(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a")

	resp := getResp(t, srv.URL+"/api/v1/runs/run-a/graph", nil)
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/xml" {
		t.Fatalf("graph: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("finished run's graph has no ETag: %q", etag)
	}
	// Conditional revalidation: the graph of a completed run is immutable.
	resp2 := getResp(t, srv.URL+"/api/v1/runs/run-a/graph", map[string]string{"If-None-Match": etag})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match revalidation: %d, want 304", resp2.StatusCode)
	}
	// A non-matching validator still gets the body.
	resp3 := getResp(t, srv.URL+"/api/v1/runs/run-a/graph", map[string]string{"If-None-Match": `"stale"`})
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Fatalf("stale validator: %d", resp3.StatusCode)
	}
}

// oracleGraphXML marshals g by reflection through encoding/xml, in the shape
// of the OPM XML dialect: the writer opm.MarshalXML replaced. Served graph
// bodies, their ETags and archived graph checksums are pinned to its bytes.
func oracleGraphXML(t *testing.T, g *opm.Graph) []byte {
	t.Helper()
	type ann struct {
		Key   string `xml:"key,attr"`
		Value string `xml:",chardata"`
	}
	type node struct {
		ID          string `xml:"id,attr"`
		Label       string `xml:"label,omitempty"`
		Value       string `xml:"value,omitempty"`
		Annotations []ann  `xml:"annotation,omitempty"`
	}
	type edge struct {
		Kind    string `xml:"type,attr"`
		Effect  string `xml:"effect"`
		Cause   string `xml:"cause"`
		Role    string `xml:"role,omitempty"`
		Account string `xml:"account,omitempty"`
		Time    string `xml:"time,omitempty"`
	}
	var x struct {
		XMLName   xml.Name `xml:"opmGraph"`
		Artifacts []node   `xml:"artifacts>artifact"`
		Processes []node   `xml:"processes>process"`
		Agents    []node   `xml:"agents>agent"`
		Deps      []edge   `xml:"causalDependencies>dependency"`
	}
	for _, n := range g.Nodes() {
		xn := node{ID: n.ID, Label: n.Label, Value: n.Value}
		keys := make([]string, 0, len(n.Annotations))
		for k := range n.Annotations {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			xn.Annotations = append(xn.Annotations, ann{Key: k, Value: n.Annotations[k]})
		}
		switch n.Kind {
		case opm.KindArtifact:
			x.Artifacts = append(x.Artifacts, xn)
		case opm.KindProcess:
			x.Processes = append(x.Processes, xn)
		case opm.KindAgent:
			x.Agents = append(x.Agents, xn)
		}
	}
	for _, e := range g.Edges() {
		xe := edge{Kind: e.Kind.String(), Effect: e.Effect, Cause: e.Cause, Role: e.Role, Account: e.Account}
		if !e.Time.IsZero() {
			xe.Time = e.Time.UTC().Format(time.RFC3339Nano)
		}
		x.Deps = append(x.Deps, xe)
	}
	blob, err := xml.MarshalIndent(x, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(xml.Header), blob...)
}

// TestAPIRunGraphBytesMatchEncodingXML pins what leaves the system for a
// finished detection run: the /graph body is the encoding/xml oracle's bytes
// for the stored graph, its ETag is that body's hash and still revalidates
// to 304, and the AIP ArchiveRunGraph packages has the same sha256.
func TestAPIRunGraphBytesMatchEncodingXML(t *testing.T) {
	srv, wsys, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var det struct {
		RunID string `json:"run_id"`
	}
	decodeJSON(t, resp, 200, &det)
	g, err := wsys.Core.Provenance.Graph(det.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() < 100 {
		t.Fatalf("run %s stored a %d-node graph", det.RunID, g.NodeCount())
	}
	want := oracleGraphXML(t, g)
	sum := sha256.Sum256(want)

	graphURL := srv.URL + "/api/v1/runs/" + det.RunID + "/graph"
	gresp := getResp(t, graphURL, nil)
	body, err := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if err != nil || gresp.StatusCode != 200 {
		t.Fatalf("GET graph: %d, %v", gresp.StatusCode, err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served graph (%d bytes) differs from the encoding/xml bytes (%d)", len(body), len(want))
	}
	etag := gresp.Header.Get("ETag")
	if wantTag := `"` + hex.EncodeToString(sum[:16]) + `"`; etag != wantTag {
		t.Fatalf("ETag %s, want %s", etag, wantTag)
	}
	again := getResp(t, graphURL, map[string]string{"If-None-Match": etag})
	again.Body.Close()
	if again.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match: %d, want 304", again.StatusCode)
	}

	store, err := archive.OpenStore([]string{t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := wsys.Core.NewPreservationManager(store, core.LevelSimplifiedFormat)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pm.ArchiveRunGraph(det.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if m.SHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("archived graph sha256 %s, want %x", m.SHA256, sum)
	}
}

func TestAPIEdgesAndNodesPagination(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a")

	var edges struct {
		Edges []struct {
			Kind   string `json:"kind"`
			Effect string `json:"effect"`
		} `json:"edges"`
		NextCursor *int `json:"next_cursor"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs/run-a/edges?limit=1", nil), 200, &edges)
	if len(edges.Edges) != 1 || edges.NextCursor == nil {
		t.Fatalf("edges page 1: %+v", edges)
	}
	after := *edges.NextCursor
	edges.Edges, edges.NextCursor = nil, nil
	decodeJSON(t, getResp(t, fmt.Sprintf("%s/api/v1/runs/run-a/edges?limit=1&after=%d", srv.URL, after), nil), 200, &edges)
	if len(edges.Edges) != 1 || edges.NextCursor != nil {
		t.Fatalf("edges page 2 should be last: %+v", edges)
	}

	var nodes struct {
		Nodes []struct {
			ID   string `json:"id"`
			Kind string `json:"kind"`
		} `json:"nodes"`
		NextCursor string `json:"next_cursor"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs/run-a/nodes?limit=2", nil), 200, &nodes)
	if len(nodes.Nodes) != 2 || nodes.NextCursor == "" {
		t.Fatalf("nodes page 1: %+v", nodes)
	}
	cursor := nodes.NextCursor
	nodes.Nodes, nodes.NextCursor = nil, ""
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs/run-a/nodes?limit=2&after="+cursor, nil), 200, &nodes)
	if len(nodes.Nodes) != 1 || nodes.NextCursor != "" {
		t.Fatalf("nodes page 2: %+v", nodes)
	}
}

// TestAPIDetectAndTrace is the API-boundary trace-propagation contract: a
// run triggered through POST /api/v1/detect is queryable as one complete
// span tree via /api/v1/runs/{id}/trace, and its flat span pages walk the
// same spans.
func TestAPIDetectAndTrace(t *testing.T) {
	srv, wsys, _ := testServer(t)

	resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var det struct {
		RunID         string            `json:"run_id"`
		DistinctNames int               `json:"distinct_names"`
		Links         map[string]string `json:"links"`
	}
	decodeJSON(t, resp, 200, &det)
	if det.RunID == "" || det.DistinctNames != 100 {
		t.Fatalf("detect: %+v", det)
	}

	var trace struct {
		RunID     string `json:"run_id"`
		Status    string `json:"status"`
		SpanCount int    `json:"span_count"`
		Complete  bool   `json:"complete"`
		Roots     []struct {
			Span struct {
				Name string `json:"name"`
				Kind string `json:"kind"`
			} `json:"span"`
			Children []json.RawMessage `json:"children"`
		} `json:"roots"`
	}
	tresp := getResp(t, srv.URL+det.Links["trace"], nil)
	etag := tresp.Header.Get("ETag")
	decodeJSON(t, tresp, 200, &trace)
	if !trace.Complete {
		t.Fatal("API-triggered run's trace is not a connected tree")
	}
	if len(trace.Roots) != 1 || trace.Roots[0].Span.Name != "run-detection" || trace.Roots[0].Span.Kind != "core" {
		t.Fatalf("trace root: %+v", trace.Roots)
	}
	// A real detection run records at least root + workflow + per-processor
	// + element spans.
	if trace.SpanCount < 4 {
		t.Fatalf("span_count %d too small", trace.SpanCount)
	}
	if len(trace.Roots[0].Children) == 0 {
		t.Fatal("root span has no children")
	}
	// A completed run's trace is immutable — ETag + 304.
	if etag == "" {
		t.Fatal("completed run's trace has no ETag")
	}
	r304 := getResp(t, srv.URL+det.Links["trace"], map[string]string{"If-None-Match": etag})
	r304.Body.Close()
	if r304.StatusCode != http.StatusNotModified {
		t.Fatalf("trace revalidation: %d, want 304", r304.StatusCode)
	}

	// Walk the flat span pages; the union must cover span_count exactly.
	total, after := 0, -1
	for {
		var page struct {
			Spans      []telemetry.Span `json:"spans"`
			NextCursor *int             `json:"next_cursor"`
		}
		url := fmt.Sprintf("%s/api/v1/runs/%s/spans?limit=3", srv.URL, det.RunID)
		if after >= 0 {
			url += fmt.Sprintf("&after=%d", after)
		}
		decodeJSON(t, getResp(t, url, nil), 200, &page)
		total += len(page.Spans)
		for _, sp := range page.Spans {
			if sp.TraceID != det.RunID {
				t.Fatalf("span %s carries trace %q, want %q", sp.SpanID, sp.TraceID, det.RunID)
			}
		}
		if page.NextCursor == nil {
			break
		}
		after = *page.NextCursor
	}
	if total != trace.SpanCount {
		t.Fatalf("span pages yielded %d spans, trace reports %d", total, trace.SpanCount)
	}

	// GET on the action endpoint is rejected.
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/detect", nil), http.StatusMethodNotAllowed, "method_not_allowed")
	// A seeded run with no trace 404s.
	seedProvRuns(t, wsys.Core, "run-untraced")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs/run-untraced/trace", nil), http.StatusNotFound, "not_found")
}

func TestAPIRecords(t *testing.T) {
	srv, wsys, _ := testServer(t)
	var species, id string
	wsys.Core.Records.Scan(func(r *fnjv.Record) bool {
		species, id = r.Species, r.ID
		return false
	})

	var list struct {
		Records []recordJSON `json:"records"`
		Count   int          `json:"count"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/records?species="+strings.ReplaceAll(species, " ", "+"), nil), 200, &list)
	if list.Count == 0 || list.Count != len(list.Records) {
		t.Fatalf("records list: %+v", list)
	}
	found := false
	for _, rec := range list.Records {
		if rec.ID == id {
			found = true
		}
		if rec.Species != species {
			t.Fatalf("filter leaked species %q", rec.Species)
		}
	}
	if !found {
		t.Fatalf("record %s missing from filtered list", id)
	}

	// Each filter and a combination of them return exactly the records the
	// filter semantics select — species ignoring case and whitespace runs,
	// state ignoring case, taxon matching any rank — in species, then ID
	// order.
	var rec *fnjv.Record
	var all []*fnjv.Record
	wsys.Core.Records.Scan(func(r *fnjv.Record) bool {
		if r.ID == id {
			rec = r
		}
		all = append(all, r)
		return true
	})
	fold := func(s string) string { return strings.ToLower(strings.Join(strings.Fields(s), " ")) }
	anyRank := func(r *fnjv.Record, taxon string) bool {
		return slices.ContainsFunc([]string{r.Phylum, r.Class, r.Order, r.Family, r.Genus},
			func(f string) bool { return strings.EqualFold(f, taxon) })
	}
	shouted := "\t " + strings.ReplaceAll(strings.ToUpper(species), " ", "   ") + " "
	for _, c := range []struct {
		query string
		match func(*fnjv.Record) bool
	}{
		{"species=" + url.QueryEscape(species), func(r *fnjv.Record) bool { return r.Species == species }},
		{"species=" + url.QueryEscape(shouted), func(r *fnjv.Record) bool { return fold(r.Species) == fold(species) }},
		{"state=" + url.QueryEscape(strings.ToUpper(rec.State)), func(r *fnjv.Record) bool { return strings.EqualFold(r.State, rec.State) }},
		{"taxon=" + url.QueryEscape(strings.ToLower(rec.Family)), func(r *fnjv.Record) bool { return anyRank(r, rec.Family) }},
		{"species=" + url.QueryEscape(shouted) + "&state=" + url.QueryEscape(rec.State) + "&taxon=" + url.QueryEscape(rec.Genus),
			func(r *fnjv.Record) bool {
				return fold(r.Species) == fold(species) && strings.EqualFold(r.State, rec.State) && anyRank(r, rec.Genus)
			}},
	} {
		var want []string
		for _, r := range all {
			if c.match(r) {
				want = append(want, r.ID)
			}
		}
		decodeJSON(t, getResp(t, srv.URL+"/api/v1/records?limit=500&"+c.query, nil), 200, &list)
		got := make([]string, len(list.Records))
		for i, r := range list.Records {
			got[i] = r.ID
		}
		slices.SortStableFunc(list.Records, func(a, b recordJSON) int {
			return cmp.Or(strings.Compare(a.Species, b.Species), strings.Compare(a.ID, b.ID))
		})
		for i, r := range list.Records {
			if got[i] != r.ID {
				t.Fatalf("%s: records not in species, ID order: %v", c.query, got)
			}
		}
		slices.Sort(got)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s: got %v, want %v", c.query, got, want)
		}
	}

	// Unfiltered listing respects the limit.
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/records?limit=5", nil), 200, &list)
	if list.Count != 5 {
		t.Fatalf("limited list: %d", list.Count)
	}
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/records?limit=-3", nil), http.StatusBadRequest, "bad_request")

	var detail struct {
		recordJSON
		History []json.RawMessage `json:"history"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/records/"+id, nil), 200, &detail)
	if detail.ID != id || detail.Curated == "" {
		t.Fatalf("record detail: %+v", detail.recordJSON)
	}
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/records/FNJV-99999", nil), http.StatusNotFound, "not_found")
}

func TestAPIQualityAndMetrics(t *testing.T) {
	srv, _, _ := testServer(t)

	// No assessment before the first run.
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/quality", nil), http.StatusNotFound, "not_found")

	resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, 200, nil)

	var q struct {
		Goal       string             `json:"goal"`
		Utility    float64            `json:"utility"`
		Dimensions map[string]float64 `json:"dimensions"`
		RunID      string             `json:"run_id"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/quality", nil), 200, &q)
	if q.Utility <= 0 || len(q.Dimensions) == 0 || q.RunID == "" {
		t.Fatalf("quality: %+v", q)
	}

	// /api/v1/metrics has no per-run rows: the engine and provenance-writer
	// subsystems showed whichever run finished last.
	var ms []MetricsEntry
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/metrics", nil), 200, &ms)
	for _, m := range ms {
		if m.Entity == "subsystem:engine" || m.Entity == "subsystem:provenance-writer" {
			t.Errorf("metrics still serve %s", m.Entity)
		}
	}
}

// qualityBody is the JSON of /api/v1/quality and /api/v1/runs/{id}/quality.
type qualityBody struct {
	Goal       string             `json:"goal"`
	Subject    string             `json:"subject"`
	At         time.Time          `json:"at"`
	Utility    float64            `json:"utility"`
	Accepted   bool               `json:"accepted"`
	Dimensions map[string]float64 `json:"dimensions"`
	Results    []struct {
		Metric string  `json:"metric"`
		Score  float64 `json:"score"`
	} `json:"results"`
	RunID string `json:"run_id"`
}

// wantLiveQuality asserts that a quality body is the live outcome's
// assessment.
func wantLiveQuality(t *testing.T, got qualityBody, live *core.DetectionOutcome) {
	t.Helper()
	a := live.Assessment
	if got.RunID != live.RunID || got.Goal != a.Goal || got.Subject != a.Subject || !got.At.Equal(a.At) ||
		got.Utility != a.Utility || got.Accepted != a.Accepted || !maps.Equal(got.Dimensions, a.Dimensions) ||
		len(got.Results) != len(a.Results) {
		t.Fatalf("quality %+v, want run %s's live assessment %+v", got, live.RunID, a)
	}
	for i, res := range got.Results {
		if res.Metric != a.Results[i].Metric || res.Score != a.Results[i].Score.Value {
			t.Fatalf("result %d = %+v, want %+v", i, res, a.Results[i])
		}
	}
}

// TestAPIRunQuality: /api/v1/runs/{id}/quality serves that run's live
// assessment, read back from storage, whichever run is the latest; an
// unknown run is not_found.
func TestAPIRunQuality(t *testing.T) {
	srv, wsys, taxa := testServer(t)
	ctx := context.Background()
	first, err := wsys.Core.RunDetection(ctx, taxa.Checklist, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	latest, err := wsys.Core.RunDetection(ctx, taxa.Checklist, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, live := range []*core.DetectionOutcome{first, latest} {
		var q qualityBody
		decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs/"+live.RunID+"/quality", nil), 200, &q)
		wantLiveQuality(t, q, live)
	}
	var q qualityBody
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/quality", nil), 200, &q)
	wantLiveQuality(t, q, latest)
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs/run-999999/quality", nil), http.StatusNotFound, "not_found")
}

// TestAPIQualityIsPerTenant: /api/v1/quality answers for the caller's
// tenant. After acme's detection, umbrella — and the default tenant — have
// no assessment, and acme's is acme's run.
func TestAPIQualityIsPerTenant(t *testing.T) {
	srv, wsys, _ := testServer(t)
	var owned []*fnjv.Record
	wsys.Core.Records.Scan(func(rec *fnjv.Record) bool {
		r := *rec
		r.ID = shard.Qualify("acme", rec.ID)
		owned = append(owned, &r)
		return len(owned) < 40
	})
	if err := wsys.Core.Records.PutAll(owned); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/v1/detect?wait=true", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var run struct {
		RunID string `json:"run_id"`
	}
	decodeJSON(t, resp, http.StatusOK, &run)

	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/quality", map[string]string{TenantHeader: "umbrella"}), http.StatusNotFound, "not_found")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/quality", nil), http.StatusNotFound, "not_found")
	var q qualityBody
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/quality", map[string]string{TenantHeader: "acme"}), 200, &q)
	if q.RunID != run.RunID {
		t.Fatalf("acme's quality is run %q, want %q", q.RunID, run.RunID)
	}
}

// TestAPIQualityAfterReopen: the assessment outlives the process that ran
// it. A server over a reopened directory answers /api/v1/quality from the
// stored run, equal to what the run returned live.
func TestAPIQualityAfterReopen(t *testing.T) {
	dir := t.TempDir()
	sys, err := core.Open(dir, core.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 20, OutdatedFraction: 0.2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: 60, Seed: 6, SyntaxErrorRate: 1e-12},
		taxa, geo.SyntheticGazetteer(4, 6), envsource.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Records.PutAll(col.Records); err != nil {
		t.Fatal(err)
	}
	live, err := sys.RunDetection(context.Background(), taxa.Checklist, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	if sys, err = core.Open(dir, core.Options{Sync: storage.SyncNever}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := httptest.NewServer(NewServer(&System{Core: sys, Resolver: taxa.Checklist}))
	defer srv.Close()
	var q qualityBody
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/quality", nil), 200, &q)
	wantLiveQuality(t, q, live)
	if code, body := get(t, srv.URL+"/quality"); code != 200 || !strings.Contains(body, "utility index") {
		t.Fatalf("quality page after reopen: %d\n%s", code, body)
	}
}

// TestAPIWorkers pins the dispatch gauges that /api/v1/cluster/queues and
// the workers subsystem of /api/v1/metrics serve. Whatever a run does — runs
// clean, fails an element, crashes at a cut or resumes — at one worker or
// four, once it returns no task is left ready or held, and a clean run's
// tasks are exactly its invocations. The retired /api/v1/workers path
// answers not_found.
func TestAPIWorkers(t *testing.T) {
	srv, wsys, taxa := testServer(t)
	sys, ctx := wsys.Core, context.Background()
	drained := func(when string) map[string]float64 {
		t.Helper()
		var q struct {
			Dispatch map[string]float64 `json:"dispatch"`
		}
		decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster/queues", nil), 200, &q)
		if d := q.Dispatch; len(d) != 3 || d["queue.depth"] != 0 || d["queue.in_flight"] != 0 {
			t.Fatalf("%s: dispatch gauges %v, want its three keys with no task ready or held", when, d)
		}
		return q.Dispatch
	}
	before := drained("before any run")
	for _, parallel := range []int{1, 4} {
		opts := core.RunOptions{SkipLedger: true, Parallel: parallel}
		out, err := sys.RunDetection(ctx, taxa.Checklist, opts)
		if err != nil {
			t.Fatal(err)
		}
		after := drained(fmt.Sprintf("parallel=%d clean run", parallel))
		if got, want := after["workers.tasks_total"]-before["workers.tasks_total"], float64(out.EngineMetrics.Invocations); got != want {
			t.Fatalf("parallel=%d: the clean run counted %v tasks for %v invocations", parallel, got, want)
		}

		if _, err := sys.RunDetection(ctx, shortBatch{taxa.Checklist}, opts); err == nil {
			t.Fatalf("parallel=%d: a misaligned batch answer did not fail the run", parallel)
		}
		drained(fmt.Sprintf("parallel=%d failed element", parallel))

		crashOpts := opts
		crashOpts.CrashAfterDeltas = 3
		_, err = sys.RunDetection(ctx, taxa.Checklist, crashOpts)
		var crash *core.CrashError
		if !errors.As(err, &crash) {
			t.Fatalf("parallel=%d: expected a crash, got %v", parallel, err)
		}
		drained(fmt.Sprintf("parallel=%d crashed run", parallel))
		if _, err := sys.ResumeDetection(ctx, taxa.Checklist, crash.RunID, opts); err != nil {
			t.Fatal(err)
		}
		before = drained(fmt.Sprintf("parallel=%d resumed run", parallel))
	}

	// The same gauges flow through /api/v1/metrics as a subsystem.
	var ms []MetricsEntry
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/metrics", nil), 200, &ms)
	found := false
	for _, m := range ms {
		if m.Entity == "subsystem:workers" {
			found = true
			if !reflect.DeepEqual(m.Measurements, before) {
				t.Fatalf("workers subsystem %v, /api/v1/cluster/queues %v", m.Measurements, before)
			}
		}
	}
	if !found {
		t.Fatal("no workers subsystem in /api/v1/metrics")
	}
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/workers", nil), http.StatusNotFound, "not_found")
}

// shortBatch answers every batch one name short. A misaligned answer answers
// nothing, so the engine fails every element of the lease.
type shortBatch struct{ *taxonomy.Checklist }

func (r shortBatch) BatchResolveDetail(ctx context.Context, names []string) []taxonomy.BatchResult {
	return r.Checklist.BatchResolveDetail(ctx, names)[1:]
}

// TestAPIArchive pins that the archive resources are gone: no program
// configures an archival store, so /api/v1/archive answers the catch-all's
// not_found envelope like any unknown resource.
func TestAPIArchive(t *testing.T) {
	srv, _, _ := testServer(t)
	for _, path := range []string{"/api/v1/archive", "/api/v1/archive/abc"} {
		wantEnvelope(t, getResp(t, srv.URL+path, nil), http.StatusNotFound, "not_found")
	}
}
