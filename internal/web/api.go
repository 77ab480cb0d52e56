// The versioned JSON API (/api/v1/): machine access to everything the HTML
// pages show — records, runs, span trees, provenance nodes/edges, quality
// assessments, runtime metrics. All responses are JSON; errors use one
// envelope shape:
//
//	{"error": {"code": "...", "message": "..."}}
//
// with codes bad_request, not_found, method_not_allowed, and internal.
// Cursor pagination mirrors the repositories: string cursors for runs and
// nodes, integer sequence cursors for edges and spans; next_cursor is
// omitted on the last page. Immutable resources — the provenance graph and
// span tree of a finished run — carry a content-hash ETag and honor
// If-None-Match with 304.
package web

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// maxPageLimit is the hard page-size ceiling of every paged endpoint.
const maxPageLimit = 500

// parsePageLimit validates a ?limit= value: empty means def; anything that
// is not a positive integer at most maxPageLimit is an error (the caller
// answers 400 — limits are never silently clamped).
func parsePageLimit(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("limit %q is not an integer", s)
	}
	if n <= 0 {
		return 0, fmt.Errorf("limit must be positive, got %d", n)
	}
	if n > maxPageLimit {
		return 0, fmt.Errorf("limit %d exceeds the maximum page size %d", n, maxPageLimit)
	}
	return n, nil
}

// parseSeqCursor validates an integer ?after= sequence cursor (-1 = start).
func parseSeqCursor(s string) (int, error) {
	if s == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("after cursor %q is not a non-negative integer", s)
	}
	return n, nil
}

// errorBody is the uniform API error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeAPIError(w http.ResponseWriter, status int, code, msg string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = msg
	blob, _ := json.MarshalIndent(body, "", "  ")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(blob, '\n'))
}

// fail maps a service error onto the envelope: errNotFound becomes 404,
// anything else 500.
func fail(w http.ResponseWriter, err error) {
	if errors.Is(err, errNotFound) {
		writeAPIError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeAPIError(w, http.StatusInternalServerError, "internal", err.Error())
}

func badRequest(w http.ResponseWriter, err error) {
	writeAPIError(w, http.StatusBadRequest, "bad_request", err.Error())
}

// writeJSON marshals v (indented, trailing newline) with 200.
func writeJSON(w http.ResponseWriter, v any) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(blob, '\n'))
}

// writeCacheable serves body with a content-hash ETag and answers 304 when
// the client's If-None-Match already names it. Only immutable
// representations go through here.
func writeCacheable(w http.ResponseWriter, r *http.Request, contentType string, body []byte) {
	sum := sha256.Sum256(body)
	etag := `"` + hex.EncodeToString(sum[:16]) + `"`
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(body)
}

// writeCacheableJSON is writeCacheable over a marshalled value.
func writeCacheableJSON(w http.ResponseWriter, r *http.Request, v any) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeAPIError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeCacheable(w, r, "application/json", append(blob, '\n'))
}

// etagMatches implements the If-None-Match comparison: a comma-separated
// candidate list, "*" matching anything, weak validators compared by value.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// registerAPI mounts the /api/v1 routes behind the tenant gate.
func (s *Server) registerAPI() {
	routes := map[string]http.HandlerFunc{
		"/api/v1/records":  s.requireGet(s.apiRecords),
		"/api/v1/records/": s.requireGet(s.apiRecord),
		"/api/v1/runs":     s.requireGet(s.apiRuns),
		"/api/v1/runs/":    s.requireGet(s.apiRun),
		"/api/v1/quality":  s.requireGet(s.apiQuality),
		"/api/v1/metrics":  s.requireGet(s.apiMetrics),
		"/api/v1/cluster":  s.requireGet(s.apiCluster),
		"/api/v1/cluster/": s.requireGet(s.apiCluster),
		"/api/v1/detect":   s.apiDetect,
		"/api/v1/": func(w http.ResponseWriter, r *http.Request) {
			writeAPIError(w, http.StatusNotFound, "not_found", "no such API resource: "+r.URL.Path)
		},
	}
	for pattern, h := range routes {
		s.mux.HandleFunc(pattern, s.tenantGate(h))
	}
}

func (s *Server) requireGet(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" not allowed")
			return
		}
		h(w, r)
	}
}

// ---- runs ----

type runJSON struct {
	RunID        string            `json:"run_id"`
	WorkflowID   string            `json:"workflow_id"`
	WorkflowName string            `json:"workflow_name"`
	Status       string            `json:"status"`
	StartedAt    time.Time         `json:"started_at"`
	FinishedAt   *time.Time        `json:"finished_at,omitempty"`
	Error        string            `json:"error,omitempty"`
	Links        map[string]string `json:"links"`
}

func runToJSON(info provenance.RunInfo) runJSON {
	base := "/api/v1/runs/" + info.RunID
	j := runJSON{
		RunID:        info.RunID,
		WorkflowID:   info.WorkflowID,
		WorkflowName: info.WorkflowName,
		Status:       string(info.Status),
		StartedAt:    info.StartedAt,
		Error:        info.Error,
		Links: map[string]string{
			"self":  base,
			"trace": base + "/trace",
			"spans": base + "/spans",
			"nodes": base + "/nodes",
			"edges": base + "/edges",
			"graph": base + "/graph",
		},
	}
	if !info.FinishedAt.IsZero() {
		t := info.FinishedAt
		j.FinishedAt = &t
	}
	return j
}

func (s *Server) apiRuns(w http.ResponseWriter, r *http.Request) {
	limit, err := parsePageLimit(r.URL.Query().Get("limit"), 25)
	if err != nil {
		badRequest(w, err)
		return
	}
	runs, next, err := s.svc.RunsPage(r.URL.Query().Get("after"), limit)
	if err != nil {
		fail(w, err)
		return
	}
	out := make([]runJSON, 0, len(runs))
	for _, info := range runs {
		out = append(out, runToJSON(info))
	}
	writeJSON(w, struct {
		Runs       []runJSON `json:"runs"`
		NextCursor string    `json:"next_cursor,omitempty"`
	}{out, next})
}

func (s *Server) apiRun(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/runs/")
	runID, sub, _ := strings.Cut(rest, "/")
	if runID == "" {
		writeAPIError(w, http.StatusNotFound, "not_found", "run ID missing")
		return
	}
	switch sub {
	case "":
		info, err := s.svc.Run(runID)
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, runToJSON(info))
	case "trace":
		s.apiRunTrace(w, r, runID)
	case "spans":
		s.apiRunSpans(w, r, runID)
	case "nodes":
		s.apiRunNodes(w, r, runID)
	case "edges":
		s.apiRunEdges(w, r, runID)
	case "graph":
		s.apiRunGraph(w, r, runID)
	default:
		writeAPIError(w, http.StatusNotFound, "not_found", "no such run resource: "+sub)
	}
}

func (s *Server) apiRunTrace(w http.ResponseWriter, r *http.Request, runID string) {
	tr, err := s.svc.RunTrace(runID)
	if err != nil {
		fail(w, err)
		return
	}
	body := struct {
		RunID     string                 `json:"run_id"`
		Status    string                 `json:"status"`
		SpanCount int                    `json:"span_count"`
		Complete  bool                   `json:"complete"`
		Roots     []*telemetry.TraceNode `json:"roots"`
	}{runID, string(tr.Info.Status), len(tr.Spans), tr.Complete, tr.Roots}
	// A finished run's trace never changes again: cache by content hash.
	if RunFinished(tr.Info) {
		writeCacheableJSON(w, r, body)
		return
	}
	writeJSON(w, body)
}

func (s *Server) apiRunSpans(w http.ResponseWriter, r *http.Request, runID string) {
	limit, err := parsePageLimit(r.URL.Query().Get("limit"), 100)
	if err != nil {
		badRequest(w, err)
		return
	}
	after, err := parseSeqCursor(r.URL.Query().Get("after"))
	if err != nil {
		badRequest(w, err)
		return
	}
	spans, next, err := s.svc.RunSpansPage(runID, after, limit)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, struct {
		RunID      string           `json:"run_id"`
		Spans      []telemetry.Span `json:"spans"`
		NextCursor *int             `json:"next_cursor,omitempty"`
	}{runID, spans, cursorPtr(next)})
}

type nodeJSON struct {
	ID          string            `json:"id"`
	Kind        string            `json:"kind"`
	Label       string            `json:"label,omitempty"`
	Value       string            `json:"value,omitempty"`
	Annotations map[string]string `json:"annotations,omitempty"`
}

func (s *Server) apiRunNodes(w http.ResponseWriter, r *http.Request, runID string) {
	limit, err := parsePageLimit(r.URL.Query().Get("limit"), 100)
	if err != nil {
		badRequest(w, err)
		return
	}
	nodes, next, err := s.svc.RunNodesPage(runID, r.URL.Query().Get("after"), limit)
	if err != nil {
		fail(w, err)
		return
	}
	out := make([]nodeJSON, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, nodeJSON{
			ID: n.ID, Kind: n.Kind.String(), Label: n.Label, Value: n.Value, Annotations: n.Annotations,
		})
	}
	writeJSON(w, struct {
		RunID      string     `json:"run_id"`
		Nodes      []nodeJSON `json:"nodes"`
		NextCursor string     `json:"next_cursor,omitempty"`
	}{runID, out, next})
}

type edgeJSON struct {
	Kind   string `json:"kind"`
	Effect string `json:"effect"`
	Cause  string `json:"cause"`
	Role   string `json:"role,omitempty"`
}

func (s *Server) apiRunEdges(w http.ResponseWriter, r *http.Request, runID string) {
	limit, err := parsePageLimit(r.URL.Query().Get("limit"), 100)
	if err != nil {
		badRequest(w, err)
		return
	}
	after, err := parseSeqCursor(r.URL.Query().Get("after"))
	if err != nil {
		badRequest(w, err)
		return
	}
	edges, next, err := s.svc.RunEdgesPage(runID, after, limit)
	if err != nil {
		fail(w, err)
		return
	}
	out := make([]edgeJSON, 0, len(edges))
	for _, e := range edges {
		out = append(out, edgeJSON{Kind: e.Kind.String(), Effect: e.Effect, Cause: e.Cause, Role: e.Role})
	}
	writeJSON(w, struct {
		RunID      string     `json:"run_id"`
		Edges      []edgeJSON `json:"edges"`
		NextCursor *int       `json:"next_cursor,omitempty"`
	}{runID, out, cursorPtr(next)})
}

func (s *Server) apiRunGraph(w http.ResponseWriter, r *http.Request, runID string) {
	blob, info, err := s.svc.RunGraphXML(runID)
	if err != nil {
		fail(w, err)
		return
	}
	if RunFinished(info) {
		writeCacheable(w, r, "application/xml", blob)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Write(blob)
}

func cursorPtr(n int) *int {
	if n < 0 {
		return nil
	}
	return &n
}

// ---- detect ----

// apiDetect (POST) triggers a detection run. With a scheduler attached the
// default is asynchronous: the run is admitted to the durable queue and the
// response is 202 Accepted with the run's URL — an orchestrator claims and
// executes it, and the client polls /api/v1/runs/{id} until the status turns
// terminal (admitted → claimed → running → completed|failed). ?wait=true
// forces the old synchronous behaviour; without a scheduler every request is
// synchronous. Synchronous runs trace from this request's boundary span
// down; the response links to the persisted trace.
func (s *Server) apiDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
		return
	}
	if s.svc.AsyncDetect() && r.URL.Query().Get("wait") != "true" {
		adm, err := s.svc.Admit(r.Context())
		if err != nil {
			fail(w, err)
			return
		}
		runURL := "/api/v1/runs/" + adm.RunID
		w.Header().Set("Location", runURL)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, struct {
			RunID  string            `json:"run_id"`
			Status string            `json:"status"`
			Links  map[string]string `json:"links"`
		}{adm.RunID, "admitted", map[string]string{
			"run":   runURL,
			"queue": "/api/v1/cluster/queues",
		}})
		return
	}
	// The run must survive a client disconnect: keep the request's values
	// (the tenant) but not its cancelation. The run's trace starts at this
	// request's boundary span.
	ctx := telemetry.WithTracer(context.WithoutCancel(r.Context()), telemetry.NewTracer(0))
	ctx, sp := telemetry.StartSpan(ctx, r.Method+" "+r.URL.Path, "api")
	outcome, err := s.svc.Detect(ctx)
	sp.Finish()
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, struct {
		RunID         string            `json:"run_id"`
		DistinctNames int               `json:"distinct_names"`
		Outdated      int               `json:"outdated"`
		Unknown       int               `json:"unknown"`
		Unavailable   int               `json:"unavailable"`
		Degraded      int               `json:"degraded"`
		Updates       int               `json:"updates_created"`
		ElapsedUS     int64             `json:"elapsed_us"`
		Links         map[string]string `json:"links"`
	}{
		outcome.RunID, outcome.DistinctNames, outcome.Outdated, outcome.Unknown,
		outcome.Unavailable, outcome.Degraded, outcome.UpdatesCreated,
		outcome.Elapsed.Microseconds(),
		map[string]string{
			"run":   "/api/v1/runs/" + outcome.RunID,
			"trace": "/api/v1/runs/" + outcome.RunID + "/trace",
		},
	})
}

// ---- records ----

type recordJSON struct {
	ID          string `json:"id"`
	Species     string `json:"species"`
	Curated     string `json:"curated_name,omitempty"`
	Phylum      string `json:"phylum,omitempty"`
	Class       string `json:"class,omitempty"`
	Order       string `json:"order,omitempty"`
	Family      string `json:"family,omitempty"`
	Country     string `json:"country,omitempty"`
	State       string `json:"state,omitempty"`
	City        string `json:"city,omitempty"`
	CollectDate string `json:"collect_date,omitempty"`
}

func (s *Server) apiRecords(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, err := parsePageLimit(q.Get("limit"), 100)
	if err != nil {
		badRequest(w, err)
		return
	}
	recs, err := s.svc.SearchRecords(q.Get("species"), q.Get("state"), q.Get("taxon"), limit)
	if err != nil {
		fail(w, err)
		return
	}
	out := make([]recordJSON, 0, len(recs))
	for _, rec := range recs {
		j := recordJSON{
			ID: rec.ID, Species: rec.Species,
			Phylum: rec.Phylum, Class: rec.Class, Order: rec.Order, Family: rec.Family,
			Country: rec.Country, State: rec.State, City: rec.City,
		}
		if !rec.CollectDate.IsZero() {
			j.CollectDate = rec.CollectDate.Format("2006-01-02")
		}
		out = append(out, j)
	}
	writeJSON(w, struct {
		Records []recordJSON `json:"records"`
		Count   int          `json:"count"`
	}{out, len(out)})
}

func (s *Server) apiRecord(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/api/v1/records/")
	d, err := s.svc.Record(id)
	if err != nil {
		fail(w, err)
		return
	}
	rec := d.Record
	type updateJSON struct {
		ID       string `json:"id"`
		Original string `json:"original_name"`
		Updated  string `json:"updated_name"`
		Status   string `json:"status"`
		Review   string `json:"review"`
	}
	type historyJSON struct {
		Field    string `json:"field"`
		OldValue string `json:"old_value"`
		NewValue string `json:"new_value"`
		Reason   string `json:"reason"`
		Actor    string `json:"actor"`
	}
	body := struct {
		recordJSON
		Updates []updateJSON  `json:"updates,omitempty"`
		History []historyJSON `json:"history,omitempty"`
	}{
		recordJSON: recordJSON{
			ID: rec.ID, Species: rec.Species, Curated: d.Curated,
			Phylum: rec.Phylum, Class: rec.Class, Order: rec.Order, Family: rec.Family,
			Country: rec.Country, State: rec.State, City: rec.City,
		},
	}
	if !rec.CollectDate.IsZero() {
		body.CollectDate = rec.CollectDate.Format("2006-01-02")
	}
	for _, u := range d.Updates {
		body.Updates = append(body.Updates, updateJSON{
			ID: u.ID, Original: u.OriginalName, Updated: u.UpdatedName, Status: u.Status, Review: u.Review,
		})
	}
	for _, h := range d.History {
		body.History = append(body.History, historyJSON{
			Field: h.Field, OldValue: h.OldValue, NewValue: h.NewValue, Reason: h.Reason, Actor: h.Actor,
		})
	}
	writeJSON(w, body)
}

// ---- quality + metrics ----

func (s *Server) apiQuality(w http.ResponseWriter, r *http.Request) {
	outcome := s.svc.LastOutcome()
	if outcome == nil || outcome.Assessment == nil {
		writeAPIError(w, http.StatusNotFound, "not_found", "no assessment yet: run detection first")
		return
	}
	a := outcome.Assessment
	type resultJSON struct {
		Metric    string  `json:"metric"`
		Dimension string  `json:"dimension"`
		Score     float64 `json:"score"`
		Detail    string  `json:"detail,omitempty"`
		Error     string  `json:"error,omitempty"`
	}
	results := make([]resultJSON, 0, len(a.Results))
	for _, res := range a.Results {
		results = append(results, resultJSON{
			Metric: res.Metric, Dimension: res.Dimension,
			Score: res.Score.Value, Detail: res.Score.Detail, Error: res.Err,
		})
	}
	writeJSON(w, struct {
		Goal       string             `json:"goal"`
		Subject    string             `json:"subject"`
		At         time.Time          `json:"at"`
		Utility    float64            `json:"utility"`
		Accepted   bool               `json:"accepted"`
		Dimensions map[string]float64 `json:"dimensions"`
		Results    []resultJSON       `json:"results"`
		RunID      string             `json:"run_id"`
	}{a.Goal, a.Subject, a.At, a.Utility, a.Accepted, a.Dimensions, results, outcome.RunID})
}

// apiMetrics snapshots the runtime counters of every instrumented subsystem
// — workflow engine (with queue-wait/exec latency quantiles), streaming
// provenance writer, scheduler — as obs.FromRuntimeMetrics
// observations, so audits and load are observable without reading experiment
// output. Serves /api/v1/metrics and the legacy /metrics.
func (s *Server) apiMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.svc.Metrics(timeNow()))
}
