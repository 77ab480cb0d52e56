// Package web implements the FNJV web-site environment in which the paper's
// prototype ran (Fig. 2 is a screenshot of it): a dashboard over the
// collection, a detection page publishing the prototype's progress numbers,
// record pages with their update references and curation history, quality
// reports, provenance export, and a Linked-Data (N-Triples) export of the
// curated collection.
package web

import (
	"context"
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/curation"
	"repro/internal/fnjv"
	"repro/internal/linkeddata"
	"repro/internal/quality"
	"repro/internal/shard"
	"repro/internal/taxonomy"
)

// Server serves the FNJV prototype UI and APIs. The HTML handlers and the
// /api/v1 JSON handlers are both thin renderers over the same Service.
type Server struct {
	System *System
	svc    *Service
	mux    *http.ServeMux
}

// System bundles what the handlers need.
type System struct {
	Core     *core.System
	Resolver taxonomy.Resolver
	// Checklist enables the Linked-Data shadow extraction endpoints; may be
	// nil.
	Checklist *taxonomy.Checklist
	// Resilient, when the Resolver is a taxonomy.ResilientResolver, exposes
	// its breaker/bulkhead/fallback counters on /metrics; may be nil.
	Resilient *taxonomy.ResilientResolver
	// Quotas, when set, rate-limits /api/v1 per tenant (X-Tenant header);
	// nil disables admission control.
	Quotas *shard.Quotas
	// Scheduler, when set, is this process's member of the scheduler pool:
	// POST /api/v1/detect admits runs asynchronously (202 + run URL) instead
	// of executing in-request, and the scheduler's claim counters show on
	// /api/v1/metrics. Nil keeps the synchronous single-process behaviour.
	Scheduler *cluster.Scheduler
}

// RecordOutcome does nothing. It is kept only because benchmark/stack.go
// calls it; the next change to benchmark/ drops that call and this method.
func (sys *System) RecordOutcome(*core.DetectionOutcome) {}

// NewServer builds the HTTP server.
func NewServer(sys *System) *Server {
	s := &Server{System: sys, svc: NewService(sys), mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleDashboard)
	s.mux.HandleFunc("/detect", s.handleDetect)
	s.mux.HandleFunc("/records", s.handleRecords)
	s.mux.HandleFunc("/record/", s.handleRecord)
	s.mux.HandleFunc("/quality", s.handleQuality)
	s.mux.HandleFunc("/review", s.handleReview)
	s.mux.HandleFunc("/review/act", s.handleReviewAct)
	s.mux.HandleFunc("/health", s.handleCollectionHealth)
	s.mux.HandleFunc("/provenance/", s.handleProvenance)
	s.mux.HandleFunc("/metrics", s.apiMetrics) // legacy path, same payload as /api/v1/metrics
	s.mux.HandleFunc("/export/ntriples", s.handleNTriples)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.registerAPI()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

var pageTmpl = template.Must(template.New("page").Parse(`<!doctype html>
<html><head><title>{{.Title}} — FNJV</title>
<style>
body{font-family:sans-serif;margin:2em;max-width:70em}
table{border-collapse:collapse}td,th{border:1px solid #999;padding:.3em .6em;text-align:left}
.num{font-variant-numeric:tabular-nums}
nav a{margin-right:1em}
.flag{color:#a40000}
</style></head>
<body>
<nav><a href="/">dashboard</a><a href="/detect">detect outdated names</a><a href="/records">search records</a><a href="/quality">quality</a><a href="/export/ntriples">linked data</a></nav>
<h1>{{.Title}}</h1>
{{.Body}}
</body></html>`))

func (s *Server) render(w http.ResponseWriter, title string, body string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	pageTmpl.Execute(w, struct {
		Title string
		Body  template.HTML
	}{title, template.HTML(body)})
}

func esc(v string) string { return template.HTMLEscapeString(v) }

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	stats, err := s.System.Core.Records.Stats()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<table>
<tr><th>records</th><td class=num>%d</td></tr>
<tr><th>distinct species names</th><td class=num>%d</td></tr>
<tr><th>with coordinates</th><td class=num>%d</td></tr>
<tr><th>with environmental fields</th><td class=num>%d</td></tr>
<tr><th>pending name updates</th><td class=num>%d</td></tr>
<tr><th>approved name updates</th><td class=num>%d</td></tr>
<tr><th>curation history entries</th><td class=num>%d</td></tr>
</table>`,
		stats.Records, stats.DistinctSpecies, stats.WithCoordinates, stats.WithEnvFields,
		s.System.Core.Ledger.CountUpdates(curation.ReviewPending),
		s.System.Core.Ledger.CountUpdates(curation.ReviewApproved),
		s.System.Core.Ledger.HistoryCount())
	// Runs are paged through the repository's cursor API: at production
	// scale the dashboard must not materialize every run ever captured.
	after := r.URL.Query().Get("after")
	limit, err := parsePageLimit(r.URL.Query().Get("limit"), 25)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	runs, next, err := s.svc.RunsPage(after, limit)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b.WriteString("<h2>provenance runs</h2><table><tr><th>run</th><th>workflow</th><th>status</th><th>provenance</th></tr>")
	for _, info := range runs {
		fmt.Fprintf(&b, `<tr><td>%s</td><td>%s</td><td>%s</td><td><a href="/provenance/%s">OPM XML</a> <a href="/provenance/%s/edges">edges</a></td></tr>`,
			esc(info.RunID), esc(info.WorkflowName), esc(string(info.Status)), esc(info.RunID), esc(info.RunID))
	}
	b.WriteString("</table>")
	if next != "" {
		fmt.Fprintf(&b, `<p><a href="/?after=%s&limit=%d">next page</a></p>`, esc(next), limit)
	}
	s.render(w, "Collection dashboard", b.String())
}

const runDetectionForm = `<form method="post" action="/detect"><button>run detection</button></form>`

// handleDetect renders the Fig. 2 progress block of the default tenant's
// latest stored detection run. Only a POST (runDetectionForm) runs a
// detection, then answers 303 to GET /detect: no link, prefetch or crawler
// writes runs into the store.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		if _, err := s.svc.Detect(context.Background()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		http.Redirect(w, r, "/detect", http.StatusSeeOther)
		return
	}
	const title = "Detection of outdated species names"
	outcome := s.latestOutcome(w, title, "<p>No run yet.</p>")
	if outcome == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<p>run <a href="/provenance/%s">%s</a>; its per-record updates wait in the <a href="/review">review queue</a>.</p>%s
<table>
<tr><th>distinct species names in the database</th><td class=num>%d</td></tr>
<tr><th>species names detected as outdated</th><td class=num>%d (%.0f%%)</td></tr>
<tr><th>names unknown to the authority</th><td class=num>%d</td></tr>
<tr><th>authority unavailable for</th><td class=num>%d</td></tr>
<tr><th>answered from stale cache (degraded)</th><td class=num>%d</td></tr>
</table>
<h2>updated species names</h2>
<table><tr><th>outdated name</th><th>current name</th></tr>`,
		esc(outcome.RunID), esc(outcome.RunID), runDetectionForm,
		outcome.DistinctNames, outcome.Outdated, 100*outcome.OutdatedFraction(),
		outcome.Unknown, outcome.Unavailable, outcome.Degraded)
	names := make([]string, 0, len(outcome.Renames))
	for n := range outcome.Renames {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "<tr><td><i>%s</i></td><td><i>%s</i></td></tr>", esc(n), esc(outcome.Renames[n]))
	}
	b.WriteString("</table>")
	s.render(w, title, b.String())
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var b strings.Builder
	b.WriteString(`<form method="get">
species <input name="species" value="` + esc(q.Get("species")) + `">
state <input name="state" value="` + esc(q.Get("state")) + `">
taxon <input name="taxon" value="` + esc(q.Get("taxon")) + `">
<button>search</button></form>`)
	if q.Get("species") != "" || q.Get("state") != "" || q.Get("taxon") != "" {
		recs, err := s.svc.SearchRecords(q.Get("species"), q.Get("state"), q.Get("taxon"), 200)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(&b, "<p>%d results (capped at 200)</p><table><tr><th>id</th><th>species</th><th>state</th><th>city</th><th>date</th></tr>", len(recs))
		for _, rec := range recs {
			date := ""
			if !rec.CollectDate.IsZero() {
				date = rec.CollectDate.Format("2006-01-02")
			}
			fmt.Fprintf(&b, `<tr><td><a href="/record/%s">%s</a></td><td><i>%s</i></td><td>%s</td><td>%s</td><td>%s</td></tr>`,
				esc(rec.ID), esc(rec.ID), esc(rec.Species), esc(rec.State), esc(rec.City), date)
		}
		b.WriteString("</table>")
	}
	s.render(w, "Metadata-based retrieval", b.String())
}

func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/record/")
	d, err := s.svc.Record(id)
	if errors.Is(err, errNotFound) {
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rec, curated := d.Record, d.Curated
	var b strings.Builder
	fmt.Fprintf(&b, `<table>
<tr><th>stored (historical) name</th><td><i>%s</i></td></tr>
<tr><th>curated (current) name</th><td><i>%s</i></td></tr>
<tr><th>classification</th><td>%s / %s / %s / %s</td></tr>
<tr><th>where</th><td>%s, %s, %s (%s)</td></tr>
<tr><th>when</th><td>%s %s</td></tr>
<tr><th>recording</th><td>%s, %s, %s @ %.1f kHz, %ds</td></tr>
</table>`,
		esc(rec.Species), esc(curated),
		esc(rec.Phylum), esc(rec.Class), esc(rec.Order), esc(rec.Family),
		esc(rec.Country), esc(rec.State), esc(rec.City), esc(rec.Locality),
		rec.CollectDate.Format("2006-01-02"), esc(rec.CollectTime),
		esc(rec.RecordingDevice), esc(rec.MicrophoneModel), esc(rec.SoundFileFormat),
		rec.FrequencyKHz, rec.DurationSec)

	if updates := d.Updates; len(updates) > 0 {
		b.WriteString("<h2>name updates (original record unchanged)</h2><table><tr><th>original</th><th>updated</th><th>status</th><th>review</th></tr>")
		for _, u := range updates {
			fmt.Fprintf(&b, "<tr><td><i>%s</i></td><td><i>%s</i></td><td>%s</td><td>%s</td></tr>",
				esc(u.OriginalName), esc(u.UpdatedName), esc(u.Status), esc(u.Review))
		}
		b.WriteString("</table>")
	}
	if hist := d.History; len(hist) > 0 {
		b.WriteString("<h2>curation history</h2><table><tr><th>field</th><th>old</th><th>new</th><th>reason</th><th>actor</th></tr>")
		for _, h := range hist {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
				esc(h.Field), esc(h.OldValue), esc(h.NewValue), esc(h.Reason), esc(h.Actor))
		}
		b.WriteString("</table>")
	}
	s.render(w, "Record "+id, b.String())
}

// handleQuality renders the default tenant's latest stored §IV.C report.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	if outcome := s.latestOutcome(w, "Quality assessment", "<p>No assessment yet: run detection first.</p>"); outcome != nil {
		s.render(w, "Quality assessment", "<pre>"+esc(quality.Report(outcome.Assessment))+"</pre>")
	}
}

// latestOutcome reads the default tenant's latest stored detection run, or
// renders the view's empty page (or a 500) and returns nil.
func (s *Server) latestOutcome(w http.ResponseWriter, title, empty string) *core.DetectionOutcome {
	outcome, err := s.svc.Outcome("", "")
	switch {
	case errors.Is(err, errNotFound):
		s.render(w, title, empty+runDetectionForm)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return outcome
}

// handleCollectionHealth renders the collection-level quality assessment
// (completeness/consistency) — where should the next curation pass go?
func (s *Server) handleCollectionHealth(w http.ResponseWriter, r *http.Request) {
	a, facts, err := s.System.Core.AssessCollection(s.System.Checklist, time.Time{}, time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<table>
<tr><th>records</th><td class=num>%d</td></tr>
<tr><th>full identification</th><td class=num>%d</td></tr>
<tr><th>georeferenced</th><td class=num>%d</td></tr>
<tr><th>environmental fields</th><td class=num>%d</td></tr>
<tr><th>genus/binomial mismatches</th><td class=num>%d</td></tr>
<tr><th>classification mismatches</th><td class=num>%d</td></tr>
<tr><th>temporal violations</th><td class=num>%d</td></tr>
</table><h2>assessment</h2><pre>%s</pre>`,
		facts.Records, facts.WithIdentification, facts.WithCoordinates, facts.WithEnvironment,
		facts.GenusMismatch, facts.ClassificationMismatch, facts.TimeDomainViolation,
		esc(quality.Report(a)))
	s.render(w, "Collection health", b.String())
}

// handleReview lists pending name updates with approve/reject controls —
// the "flagged to be checked by biologists" queue.
func (s *Server) handleReview(w http.ResponseWriter, r *http.Request) {
	pending, err := s.System.Core.Ledger.Pending()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<p>%d updates pending biologist review</p>", len(pending))
	if len(pending) > 0 {
		b.WriteString("<table><tr><th>update</th><th>record</th><th>original</th><th>proposed</th><th>status</th><th>reference</th><th></th></tr>")
		max := len(pending)
		if max > 100 {
			max = 100
		}
		for _, u := range pending[:max] {
			fmt.Fprintf(&b, `<tr><td>%s</td><td><a href="/record/%s">%s</a></td><td><i>%s</i></td><td><i>%s</i></td><td>%s</td><td>%s</td>
<td><form method="post" action="/review/act" style="display:inline">
<input type="hidden" name="id" value="%s">
<button name="verdict" value="approved">approve</button>
<button name="verdict" value="rejected">reject</button>
</form></td></tr>`,
				esc(u.ID), esc(u.RecordID), esc(u.RecordID), esc(u.OriginalName), esc(u.UpdatedName),
				esc(u.Status), esc(u.Reference), esc(u.ID))
		}
		b.WriteString("</table>")
		if len(pending) > max {
			fmt.Fprintf(&b, "<p>... and %d more</p>", len(pending)-max)
		}
	}
	s.render(w, "Biologist review queue", b.String())
}

// handleReviewAct records a curator verdict and logs approved renames.
func (s *Server) handleReviewAct(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	id := r.FormValue("id")
	verdict := r.FormValue("verdict")
	led := s.System.Core.Ledger
	u, err := led.Update(id)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	if err := led.Resolve(id, verdict, "web-curator", time.Now()); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if verdict == curation.ReviewApproved {
		if err := led.LogChange(curation.HistoryEntry{
			RecordID: u.RecordID, Field: "species",
			OldValue: u.OriginalName, NewValue: u.UpdatedName,
			Reason: fmt.Sprintf("name-update:%s (%s)", u.Status, u.Reference),
			Actor:  "web-curator", At: time.Now(),
		}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	http.Redirect(w, r, "/review", http.StatusSeeOther)
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/provenance/")
	if runID, ok := strings.CutSuffix(rest, "/edges"); ok {
		s.handleProvenanceEdges(w, r, runID)
		return
	}
	blob, _, err := s.svc.RunGraphXML(rest)
	if errors.Is(err, errNotFound) {
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Write(blob)
}

// handleProvenanceEdges renders one page of a run's dependency edges using
// the repository's cursor API — large runs (per-element derivations) never
// load whole into a response.
func (s *Server) handleProvenanceEdges(w http.ResponseWriter, r *http.Request, runID string) {
	after, err := parseSeqCursor(r.URL.Query().Get("after"))
	if err != nil {
		http.Error(w, "bad after cursor", http.StatusBadRequest)
		return
	}
	limit, err := parsePageLimit(r.URL.Query().Get("limit"), 100)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	edges, next, err := s.svc.RunEdgesPage(runID, after, limit)
	if errors.Is(err, errNotFound) {
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<p>run <b>%s</b> — <a href="/provenance/%s">OPM XML</a></p>`, esc(runID), esc(runID))
	b.WriteString("<table><tr><th>kind</th><th>effect</th><th>cause</th><th>role</th></tr>")
	for _, e := range edges {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			esc(string(e.Kind)), esc(e.Effect), esc(e.Cause), esc(e.Role))
	}
	b.WriteString("</table>")
	if next >= 0 {
		fmt.Fprintf(&b, `<p><a href="/provenance/%s/edges?after=%d&limit=%d">next page</a></p>`, esc(runID), next, limit)
	}
	s.render(w, "Provenance edges", b.String())
}

func (s *Server) handleNTriples(w http.ResponseWriter, r *http.Request) {
	// Two-phase: collect records first, then consult the ledger — nesting
	// ledger reads inside the collection scan would hold two read locks at
	// once, which can deadlock against a concurrent writer.
	var recs []*fnjv.Record
	err := s.System.Core.Records.Scan(func(rec *fnjv.Record) bool {
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	store := linkeddata.NewStore()
	for _, rec := range recs {
		curated, err := curation.CuratedName(s.System.Core.Ledger, rec.ID, rec.Species)
		if err == nil {
			err = linkeddata.ExportRecord(store, rec, curated)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/n-triples")
	store.WriteNTriples(w)
}
