package web

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
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

// seqCursorFixture runs one small detection through the API and returns the
// handler with the run's edge and span resources.
func seqCursorFixture(tb testing.TB) (http.Handler, []seqPages) {
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
	if err := sys.Records.PutAll(col.Records); err != nil {
		tb.Fatal(err)
	}
	h := NewServer(&System{Core: sys, Resolver: taxa.Checklist, Checklist: taxa.Checklist})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/detect", nil))
	var det struct {
		RunID string `json:"run_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &det); err != nil || rec.Code != http.StatusOK {
		tb.Fatalf("detect: status %d, %v: %s", rec.Code, err, rec.Body.Bytes())
	}

	g, err := sys.Provenance.Graph(det.RunID)
	if err != nil {
		tb.Fatal(err)
	}
	var edges []string
	for _, e := range g.Edges() {
		edges = append(edges, edgeItem(e.Kind.String(), e.Effect, e.Cause, e.Role))
	}
	all, err := sys.Traces.Spans(det.RunID)
	if err != nil {
		tb.Fatal(err)
	}
	var spans []string
	for _, sp := range all {
		spans = append(spans, sp.SpanID)
	}
	if len(edges) < 10 || len(spans) < 4 {
		tb.Fatalf("run %s has %d edges and %d spans: too few to page", det.RunID, len(edges), len(spans))
	}
	base := "/api/v1/runs/" + det.RunID
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

func edgeItem(kind, effect, cause, role string) string {
	return kind + " " + effect + " <- " + cause + " " + role
}
