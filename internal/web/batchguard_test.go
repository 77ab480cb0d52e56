package web

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// countingAuthority fronts a real authority service, counts the requests per
// endpoint and refuses the first refuse of them with a 503.
type countingAuthority struct {
	inner http.Handler

	mu     sync.Mutex
	refuse int
	paths  map[string]int
}

func (a *countingAuthority) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	a.paths[r.URL.Path]++
	refused := a.refuse > 0
	if refused {
		a.refuse--
	}
	a.mu.Unlock()
	if refused {
		http.Error(w, "authority temporarily unavailable", http.StatusServiceUnavailable)
		return
	}
	a.inner.ServeHTTP(w, r)
}

func (a *countingAuthority) count(path string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.paths[path]
}

// TestAPIDetectBatchesAuthorityRequests is the guard against the batch path
// silently disengaging: through the production entry point — POST
// /api/v1/detect, default options, one engine worker — and the production
// resolver stack, a detection over 16 cold names reaches the authority as
// exactly one /resolve_batch request and no /resolve request, and stays
// correct (one retried batch, nothing unavailable) when the authority refuses
// the first attempt.
func TestAPIDetectBatchesAuthorityRequests(t *testing.T) {
	for _, tc := range []struct {
		name                string
		refuse, wantBatches int
	}{
		{"authority up", 0, 1},
		{"first attempt refused", 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.Open(t.TempDir(), core.Options{Sync: storage.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 16, OutdatedFraction: 0.25, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			col, err := fnjv.Generate(fnjv.CollectionSpec{Records: 96, Seed: 4, SyntaxErrorRate: 1e-12},
				taxa, geo.SyntheticGazetteer(10, 4), envsource.NewSimulator())
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Records.PutAll(col.Records); err != nil {
				t.Fatal(err)
			}

			authority := &countingAuthority{inner: taxonomy.NewService(taxa.Checklist), refuse: tc.refuse, paths: map[string]int{}}
			asrv := httptest.NewServer(authority)
			defer asrv.Close()
			client := taxonomy.NewClient(asrv.URL)
			client.Backoff = time.Millisecond
			resilient := taxonomy.NewResilientResolver(client, taxonomy.ResilienceOptions{})
			srv := httptest.NewServer(NewServer(&System{Core: sys, Resolver: resilient, Checklist: taxa.Checklist, Resilient: resilient}))
			defer srv.Close()

			resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			var det struct {
				DistinctNames int `json:"distinct_names"`
				Outdated      int `json:"outdated"`
				Unknown       int `json:"unknown"`
				Unavailable   int `json:"unavailable"`
				Degraded      int `json:"degraded"`
			}
			decodeJSON(t, resp, 200, &det)
			if det.DistinctNames != 16 || det.Outdated != len(taxa.OutdatedNames) || det.Outdated == 0 ||
				det.Unknown != 0 || det.Unavailable != 0 || det.Degraded != 0 {
				t.Fatalf("detect over 16 names (%d outdated): %+v", len(taxa.OutdatedNames), det)
			}
			if got := authority.count("/resolve_batch"); got != tc.wantBatches {
				t.Errorf("%d /resolve_batch requests, want %d", got, tc.wantBatches)
			}
			if got := authority.count("/resolve"); got != 0 {
				t.Errorf("%d /resolve requests, want none: names are travelling one per round trip again", got)
			}

			// The engine's side of the same fact, as operators see it.
			var ms []MetricsEntry
			decodeJSON(t, getResp(t, srv.URL+"/api/v1/metrics", nil), 200, &ms)
			for _, m := range ms {
				if m.Entity != "subsystem:engine" {
					continue
				}
				if m.Measurements["engine.batches"] != 1 || m.Measurements["engine.batched_elements"] != 16 {
					t.Errorf("engine metrics report %v batches carrying %v elements, want 1 and 16",
						m.Measurements["engine.batches"], m.Measurements["engine.batched_elements"])
				}
			}
		})
	}
}
