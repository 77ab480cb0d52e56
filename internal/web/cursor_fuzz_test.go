package web

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/telemetry"
)

// seqPages is one sequence-cursor resource of a run: its path suffix, the
// run's full list as the store holds it, and how to read a page's items.
type seqPages struct {
	path string
	full []string
	read func(body []byte) (items []string, next *int, err error)
}

// FuzzSeqCursorPages drives GET /api/v1/runs/{id}/edges and /spans of one
// completed run with an arbitrary (after, limit) pair. A limit outside
// 1..maxPageLimit or a negative cursor answers 400. Otherwise the page is
// the suffix of the full list after the cursor, cut to limit, with a next
// cursor exactly when more rows remain; and walking from the start by next
// cursor at that limit visits every row once, in order.
func FuzzSeqCursorPages(f *testing.F) {
	h, resources := seqCursorFixture(f)
	f.Add(int64(math.MaxInt64), 3)
	f.Add(int64(math.MaxInt32), 3)
	f.Add(int64(999999), 2)
	f.Add(int64(99999999), 2)
	f.Add(int64(-1), 5)
	f.Add(int64(0), 1)
	f.Add(int64(7), 500)
	f.Add(int64(3), 0)
	f.Add(int64(3), 501)
	f.Fuzz(func(t *testing.T, after int64, limit int) {
		for _, res := range resources {
			url := fmt.Sprintf("%s?after=%d&limit=%d", res.path, after, limit)
			code, body := serve(h, url)
			if after < 0 || limit < 1 || limit > maxPageLimit {
				if code != http.StatusBadRequest {
					t.Fatalf("GET %s: status %d, want 400", url, code)
				}
				continue
			}
			if code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", url, code, body)
			}
			items, next, err := res.read(body)
			if err != nil {
				t.Fatalf("GET %s: %v", url, err)
			}
			from := len(res.full)
			if after < int64(len(res.full)) {
				from = int(after) + 1
			}
			want := res.full[from:]
			more := len(want) > limit
			if more {
				want = want[:limit]
			}
			if !slices.Equal(items, want) {
				t.Fatalf("GET %s: %d items %v, want the %d after the cursor %v", url, len(items), items, len(want), want)
			}
			if (next != nil) != more || more && *next != int(after)+limit {
				t.Fatalf("GET %s: next cursor %v, want one at %d exactly when more remain (%v)", url, next, int(after)+limit, more)
			}

			var walked []string
			cursor := ""
			for pages := 0; ; pages++ {
				if pages > len(res.full) {
					t.Fatalf("walking %s at limit %d never ends", res.path, limit)
				}
				url := fmt.Sprintf("%s?limit=%d%s", res.path, limit, cursor)
				code, body := serve(h, url)
				if code != http.StatusOK {
					t.Fatalf("GET %s: status %d", url, code)
				}
				items, next, err := res.read(body)
				if err != nil {
					t.Fatalf("GET %s: %v", url, err)
				}
				walked = append(walked, items...)
				if next == nil {
					break
				}
				cursor = fmt.Sprintf("&after=%d", *next)
			}
			if !slices.Equal(walked, res.full) {
				t.Fatalf("walking %s at limit %d visited %d rows, want each of %d once", res.path, limit, len(walked), len(res.full))
			}
		}
	})
}

func serve(h http.Handler, url string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.Bytes()
}

// cursorFixture stores three small detection runs through the API — two for
// the default tenant, one for tenant acme, whose run ID sorts before theirs
// — and returns the handler, the system and the last default-tenant run.
func cursorFixture(tb testing.TB) (http.Handler, *core.System, string) {
	tb.Helper()
	sys, err := core.Open(tb.TempDir(), core.Options{Sync: storage.SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sys.Close() })
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 12, OutdatedFraction: 0.2, Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: 40, Seed: 9, SyntaxErrorRate: 1e-12},
		taxa, geo.SyntheticGazetteer(4, 4), envsource.NewSimulator())
	if err != nil {
		tb.Fatal(err)
	}
	acme := *col.Records[0]
	acme.ID = shard.Qualify("acme", acme.ID)
	if err := sys.Records.PutAll(append(col.Records, &acme)); err != nil {
		tb.Fatal(err)
	}
	h := NewServer(&System{Core: sys, Resolver: taxa.Checklist, Checklist: taxa.Checklist})
	var runID string
	for _, tenant := range []string{"acme", "", ""} {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/detect", nil)
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var det struct {
			RunID string `json:"run_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &det); err != nil || rec.Code != http.StatusOK {
			tb.Fatalf("detect: status %d, %v: %s", rec.Code, err, rec.Body.Bytes())
		}
		runID = det.RunID
	}
	return h, sys, runID
}

// seqCursorFixture returns cursorFixture's handler with its last run's edge
// and span resources.
func seqCursorFixture(tb testing.TB) (http.Handler, []seqPages) {
	tb.Helper()
	h, sys, runID := cursorFixture(tb)
	g, err := sys.Provenance.Graph(runID)
	if err != nil {
		tb.Fatal(err)
	}
	var edges []string
	for _, e := range g.Edges() {
		edges = append(edges, edgeItem(e.Kind.String(), e.Effect, e.Cause, e.Role))
	}
	all, err := sys.Traces.Spans(runID)
	if err != nil {
		tb.Fatal(err)
	}
	var spans []string
	for _, sp := range all {
		spans = append(spans, sp.SpanID)
	}
	if len(edges) < 10 || len(spans) < 4 {
		tb.Fatalf("run %s has %d edges and %d spans: too few to page", runID, len(edges), len(spans))
	}
	base := "/api/v1/runs/" + runID
	return h, []seqPages{
		{base + "/edges", edges, func(body []byte) ([]string, *int, error) {
			var page struct {
				Edges      []edgeJSON `json:"edges"`
				NextCursor *int       `json:"next_cursor"`
			}
			err := json.Unmarshal(body, &page)
			var items []string
			for _, e := range page.Edges {
				items = append(items, edgeItem(e.Kind, e.Effect, e.Cause, e.Role))
			}
			return items, page.NextCursor, err
		}},
		{base + "/spans", spans, func(body []byte) ([]string, *int, error) {
			var page struct {
				Spans      []telemetry.Span `json:"spans"`
				NextCursor *int             `json:"next_cursor"`
			}
			err := json.Unmarshal(body, &page)
			var items []string
			for _, sp := range page.Spans {
				items = append(items, sp.SpanID)
			}
			return items, page.NextCursor, err
		}},
	}
}

// strPages is one string-cursor resource: its path, the keys of its items in
// sorted order, and how to read a page's keys and next cursor.
type strPages struct {
	path string
	full []string
	read func(body []byte) (items []string, next string, err error)
}

// FuzzStringCursorPages drives GET /api/v1/runs and /api/v1/runs/{id}/nodes
// with an arbitrary (after, limit) pair. A limit outside 1..maxPageLimit
// answers 400. Otherwise the page holds exactly the items whose key sorts
// after the cursor, cut to limit, with a next cursor — the page's last key —
// exactly when more remain.
func FuzzStringCursorPages(f *testing.F) {
	h, sys, runID := cursorFixture(f)
	runs, err := sys.Provenance.AllRuns()
	if err != nil {
		f.Fatal(err)
	}
	var runIDs []string
	for _, info := range runs {
		runIDs = append(runIDs, info.RunID)
	}
	g, err := sys.Provenance.Graph(runID)
	if err != nil {
		f.Fatal(err)
	}
	var nodeIDs []string
	for _, n := range g.Nodes() {
		nodeIDs = append(nodeIDs, n.ID)
	}
	slices.Sort(runIDs)
	slices.Sort(nodeIDs)
	resources := []strPages{
		{"/api/v1/runs", runIDs, func(body []byte) ([]string, string, error) {
			var page struct {
				Runs       []runJSON `json:"runs"`
				NextCursor string    `json:"next_cursor"`
			}
			err := json.Unmarshal(body, &page)
			var items []string
			for _, r := range page.Runs {
				items = append(items, r.RunID)
			}
			return items, page.NextCursor, err
		}},
		{"/api/v1/runs/" + runID + "/nodes", nodeIDs, func(body []byte) ([]string, string, error) {
			var page struct {
				Nodes      []nodeJSON `json:"nodes"`
				NextCursor string     `json:"next_cursor"`
			}
			err := json.Unmarshal(body, &page)
			var items []string
			for _, n := range page.Nodes {
				items = append(items, n.ID)
			}
			return items, page.NextCursor, err
		}},
	}
	f.Add("", 1)
	f.Add("", 500)
	f.Add(runID, 2)
	f.Add("acme:run-", 1)
	f.Add(nodeIDs[len(nodeIDs)/2], 3)
	f.Add("a:p:/\x00", 4)
	f.Add("\xff\xfe", 5)
	f.Add("run-", 0)
	f.Add("run-", 501)
	f.Fuzz(func(t *testing.T, after string, limit int) {
		for _, res := range resources {
			target := fmt.Sprintf("%s?after=%s&limit=%d", res.path, url.QueryEscape(after), limit)
			code, body := serve(h, target)
			if limit < 1 || limit > maxPageLimit {
				if code != http.StatusBadRequest {
					t.Fatalf("GET %s: status %d, want 400", target, code)
				}
				continue
			}
			if code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", target, code, body)
			}
			items, next, err := res.read(body)
			if err != nil {
				t.Fatalf("GET %s: %v", target, err)
			}
			from, found := slices.BinarySearch(res.full, after)
			if found {
				from++
			}
			want := res.full[from:]
			more := len(want) > limit
			if more {
				want = want[:limit]
			}
			if !slices.Equal(items, want) {
				t.Fatalf("GET %s: %d items %q, want the %d after the cursor %q", target, len(items), items, len(want), want)
			}
			wantNext := ""
			if more {
				wantNext = want[len(want)-1]
			}
			if next != wantNext {
				t.Fatalf("GET %s: next cursor %q, want %q", target, next, wantNext)
			}
		}
	})
}

func edgeItem(kind, effect, cause, role string) string {
	return kind + " " + effect + " <- " + cause + " " + role
}
