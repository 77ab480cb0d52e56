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
	"sync"
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

func timeNow() time.Time { return time.Now() }

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
	// Preservation enables the /archive fixity views and the scrubber rows
	// of /metrics; may be nil when no archival store is configured.
	Preservation *core.PreservationManager
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

	mu          sync.Mutex
	lastOutcome *core.DetectionOutcome
}

// RecordOutcome publishes a detection outcome produced outside the request
// path — the scheduler draining admitted runs — so the quality and detect
// views reflect it exactly as a synchronous run's outcome would.
func (sys *System) RecordOutcome(out *core.DetectionOutcome) {
	if out == nil {
		return
	}
	sys.mu.Lock()
	sys.lastOutcome = out
	sys.mu.Unlock()
}

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
	s.mux.HandleFunc("/archive", s.handleArchive)
	s.mux.HandleFunc("/archive/", s.handleArchiveObject)
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
<nav><a href="/">dashboard</a><a href="/detect">detect outdated names</a><a href="/records">search records</a><a href="/quality">quality</a><a href="/archive">archive</a><a href="/export/ntriples">linked data</a></nav>
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

// handleDetect runs the detection workflow (GET shows the last result;
// POST or ?run=1 triggers a new run) and renders the Fig. 2 progress block.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost || r.URL.Query().Get("run") == "1" {
		if _, err := s.svc.Detect(context.Background()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	outcome := s.svc.LastOutcome()
	if outcome == nil {
		s.render(w, "Detection of outdated species names",
			`<p>No run yet. <a href="/detect?run=1">Run detection now</a>.</p>`)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<p><a href="/detect?run=1">Run again</a></p>
<table>
<tr><th>distinct species names in the database</th><td class=num>%d</td></tr>
<tr><th>records processed</th><td class=num>%d</td></tr>
<tr><th>species names detected as outdated</th><td class=num>%d (%.0f%%)</td></tr>
<tr><th>names unknown to the authority</th><td class=num>%d</td></tr>
<tr><th>authority unavailable for</th><td class=num>%d</td></tr>
<tr><th>answered from stale cache (degraded)</th><td class=num>%d</td></tr>
<tr><th>per-record updates flagged for biologists</th><td class="num flag">%d</td></tr>
</table>
<h2>updated species names</h2>
<table><tr><th>outdated name</th><th>current name</th></tr>`,
		outcome.DistinctNames, outcome.RecordsProcessed, outcome.Outdated,
		100*outcome.OutdatedFraction(), outcome.Unknown, outcome.Unavailable,
		outcome.Degraded, outcome.UpdatesCreated)
	names := make([]string, 0, len(outcome.Renames))
	for n := range outcome.Renames {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "<tr><td><i>%s</i></td><td><i>%s</i></td></tr>", esc(n), esc(outcome.Renames[n]))
	}
	b.WriteString("</table>")
	s.render(w, "Detection of outdated species names", b.String())
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

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	outcome := s.svc.LastOutcome()
	if outcome == nil {
		s.render(w, "Quality assessment", `<p>No assessment yet — <a href="/detect?run=1">run detection first</a>.</p>`)
		return
	}
	s.render(w, "Quality assessment", "<pre>"+esc(quality.Report(outcome.Assessment))+"</pre>")
}

// handleCollectionHealth renders the collection-level quality assessment
// (completeness/consistency) — where should the next curation pass go?
func (s *Server) handleCollectionHealth(w http.ResponseWriter, r *http.Request) {
	a, facts, err := s.System.Core.AssessCollection(s.System.Checklist, time.Time{}, timeNow())
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
	if err := led.Resolve(id, verdict, "web-curator", timeNow()); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if verdict == curation.ReviewApproved {
		if err := led.LogChange(curation.HistoryEntry{
			RecordID: u.RecordID, Field: "species",
			OldValue: u.OriginalName, NewValue: u.UpdatedName,
			Reason: fmt.Sprintf("name-update:%s (%s)", u.Status, u.Reference),
			Actor:  "web-curator", At: timeNow(),
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

// handleArchive renders the archival store's fixity dashboard: every AIP
// with its per-replica state, the quarantine list, and a scrub trigger
// (?scrub=1 / POST) that runs one audit pass inline.
func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	if r.Method == http.MethodPost || r.URL.Query().Get("scrub") == "1" {
		rep, err := s.svc.Scrub(r.Context())
		if errors.Is(err, errNotFound) {
			s.render(w, "Archival store", "<p>No archival store configured.</p>")
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(&b, `<p>scrub pass: <b>%d</b> objects, %d replicas re-hashed, %d corrupt, %d missing, <b>%d repaired</b>, %d unrecoverable (%.0f ms)</p>`,
			rep.Objects, rep.ReplicasChecked, rep.CorruptFound, rep.MissingFound,
			rep.Repaired, rep.Unrecoverable,
			float64(rep.FinishedAt.Sub(rep.StartedAt).Microseconds())/1000)
	} else {
		b.WriteString(`<p><a href="/archive?scrub=1">Run a scrub pass now</a></p>`)
	}
	limit, err := parsePageLimit(r.URL.Query().Get("limit"), 100)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ov, err := s.svc.ArchiveOverview(limit)
	if errors.Is(err, errNotFound) {
		s.render(w, "Archival store", "<p>No archival store configured.</p>")
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintf(&b, "<p>%d archived objects across %d replica volumes</p>", ov.Total, ov.Volumes)
	b.WriteString("<table><tr><th>package</th><th>label</th><th>media</th><th>size</th><th>replicas</th><th>fixity</th></tr>")
	for _, st := range ov.Objects {
		fixity := "healthy"
		if st.Damaged() {
			fixity = fmt.Sprintf(`<span class=flag>%d/%d healthy</span>`, st.Healthy(), len(st.Replicas))
		}
		fmt.Fprintf(&b, `<tr><td><a href="/archive/%s">%s</a></td><td>%s</td><td>%s</td><td class=num>%d</td><td class=num>%d</td><td>%s</td></tr>`,
			esc(st.ID), esc(shortID(st.ID)), esc(st.Manifest.Label), esc(st.Manifest.MediaType),
			st.Manifest.Size, len(st.Replicas), fixity)
	}
	if ov.Truncated > 0 {
		fmt.Fprintf(&b, "<tr><td colspan=6>... and %d more</td></tr>", ov.Truncated)
	}
	b.WriteString("</table>")
	if len(ov.Quarantined) > 0 {
		fmt.Fprintf(&b, `<h2>quarantined (unrecoverable)</h2><p class=flag>%d objects lost every healthy replica; damaged bytes are preserved for forensics</p><table><tr><th>package</th></tr>`, len(ov.Quarantined))
		for _, id := range ov.Quarantined {
			fmt.Fprintf(&b, `<tr><td><a href="/archive/%s">%s</a></td></tr>`, esc(id), esc(id))
		}
		b.WriteString("</table>")
	}
	s.render(w, "Archival store", b.String())
}

// handleArchiveObject renders one AIP: its manifest, provenance links and
// per-volume replica fixity.
func (s *Server) handleArchiveObject(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/archive/")
	st, err := s.svc.ArchiveObject(id)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	var b strings.Builder
	m := st.Manifest
	provLink := esc(m.RunID)
	if m.RunID != "" {
		provLink = fmt.Sprintf(`<a href="/provenance/%s">%s</a>`, esc(m.RunID), esc(m.RunID))
	}
	recLink := esc(m.SourceID)
	if m.SourceID != "" {
		recLink = fmt.Sprintf(`<a href="/record/%s">%s</a>`, esc(m.SourceID), esc(m.SourceID))
	}
	fmt.Fprintf(&b, `<table>
<tr><th>label</th><td>%s</td></tr>
<tr><th>media type</th><td>%s</td></tr>
<tr><th>size</th><td class=num>%d bytes</td></tr>
<tr><th>sha256</th><td><code>%s</code></td></tr>
<tr><th>source record</th><td>%s</td></tr>
<tr><th>provenance run</th><td>%s</td></tr>
<tr><th>archived at</th><td>%s</td></tr>
<tr><th>quarantined</th><td>%v</td></tr>
</table><h2>replicas</h2><table><tr><th>volume</th><th>state</th><th>detail</th></tr>`,
		esc(m.Label), esc(m.MediaType), m.Size, esc(m.SHA256),
		recLink, provLink, m.CreatedAt.Format(time.RFC3339), st.Quarantined)
	for _, rep := range st.Replicas {
		cls := ""
		if rep.State != "healthy" {
			cls = " class=flag"
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td%s>%s</td><td>%s</td></tr>",
			esc(rep.Volume), cls, esc(string(rep.State)), esc(rep.Detail))
	}
	b.WriteString("</table>")
	s.render(w, "Archived package "+shortID(id), b.String())
}

// shortID abbreviates an AIP ID for display. IDs come from file names on a
// volume, so a stray short one must not be sliced past its end.
func shortID(id string) string { return id[:min(12, len(id))] }

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
