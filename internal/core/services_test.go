package core

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/quality"
	"repro/internal/taxonomy"
	"repro/internal/workflow"
)

// resolveStatuses runs names through both forms of the col.resolve service
// core binds to resolver and returns the status each form reported per name.
func resolveStatuses(t *testing.T, resolver taxonomy.Resolver, names []string) (single, batch []string) {
	t.Helper()
	reg := workflow.NewRegistry()
	RegisterDetectionServicesInto(reg, resolver)
	status := func(out map[string]workflow.Data, err error) string {
		if err != nil {
			t.Fatalf("col.resolve failed the workflow instead of reporting data: %v", err)
		}
		var rr resolveResult
		if err := json.Unmarshal([]byte(out["result"].String()), &rr); err != nil {
			t.Fatal(err)
		}
		return rr.Status
	}
	calls := make([]workflow.Call, len(names))
	for i, name := range names {
		calls[i] = workflow.Call{Inputs: map[string]workflow.Data{"name": workflow.Scalar(name)}}
	}
	fn, _ := reg.Lookup("col.resolve")
	for _, call := range calls {
		single = append(single, status(fn(context.Background(), call)))
	}
	batchFn, ok := reg.LookupBatch("col.resolve")
	if !ok {
		t.Fatalf("col.resolve has no batch form over %T", resolver)
	}
	for _, res := range batchFn(context.Background(), calls) {
		batch = append(batch, status(res.Outputs, res.Err))
	}
	return single, batch
}

// TestAuthorityErrorsAreNotAcceptedNames: an authority that answers with a
// non-retryable error — HTTP 500, a body that does not decode — gives no
// usable answer, and both forms of col.resolve must say "unavailable": not ""
// (which the summary counts as an accepted name and the accuracy metric as a
// correct one), and not "unknown".
func TestAuthorityErrorsAreNotAcceptedNames(t *testing.T) {
	stubs := map[string]http.HandlerFunc{
		"500": func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "internal error", http.StatusInternalServerError)
		},
		"garbage": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte("<html>not json"))
		},
	}
	names := []string{"Hyla faber", "Scinax ruber", "Boana albopunctata"}
	for stub, handler := range stubs {
		srv := httptest.NewServer(handler)
		stacks := map[string]taxonomy.Resolver{
			"client":    taxonomy.NewClient(srv.URL),
			"resilient": taxonomy.NewResilientResolver(taxonomy.NewClient(srv.URL), taxonomy.ResilienceOptions{}),
		}
		for stack, resolver := range stacks {
			single, batch := resolveStatuses(t, resolver, names)
			for i, name := range names {
				if single[i] != "unavailable" {
					t.Errorf("%s/%s: single form reports %q as %q, want unavailable", stub, stack, name, single[i])
				}
				if batch[i] != "unavailable" {
					t.Errorf("%s/%s: batch form reports %q as %q, want unavailable", stub, stack, name, batch[i])
				}
			}
		}
		srv.Close()
	}

	// The distinction the classification must keep: a name the authority
	// does not know is "unknown", in both forms, next to names it accepts.
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(taxonomy.NewService(taxa.Checklist))
	defer srv.Close()
	mixed := []string{taxa.HistoricalNames[0], "Nomen nescio", taxa.HistoricalNames[1]}
	single, batch := resolveStatuses(t, taxonomy.NewResilientResolver(taxonomy.NewClient(srv.URL), taxonomy.ResilienceOptions{}), mixed)
	for i := range mixed {
		want := "unknown"
		if i != 1 {
			want = single[i]
			if want == "unknown" || want == "unavailable" || want == "" {
				t.Fatalf("healthy authority reports %q as %q", mixed[i], want)
			}
		}
		if single[i] != want || batch[i] != want {
			t.Errorf("%q: single %q, batch %q, want %q", mixed[i], single[i], batch[i], want)
		}
	}
}

// TestFailingAuthorityDoesNotInflateAccuracy is the same bug end to end: a
// detection against an authority answering 500, or a body that does not
// decode, checks nothing, so every name is unavailable — not unknown — and
// none counts towards species-name accuracy, whether the names go one per
// request or batched, through the bare client, the cache or the resilient
// stack.
func TestFailingAuthorityDoesNotInflateAccuracy(t *testing.T) {
	sys, _, _ := testSystem(t, 60, 12)
	stubs := map[string]http.HandlerFunc{
		"500": func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "internal error", http.StatusInternalServerError)
		},
		"garbage": func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte("<html>not json"))
		},
	}
	stacks := map[string]func(*taxonomy.Client) taxonomy.Resolver{
		"per-element": func(c *taxonomy.Client) taxonomy.Resolver { return singleOnlyResolver{c} },
		"batched":     func(c *taxonomy.Client) taxonomy.Resolver { return c },
		"caching":     func(c *taxonomy.Client) taxonomy.Resolver { return taxonomy.NewCachingResolver(c, 0) },
		"resilient": func(c *taxonomy.Client) taxonomy.Resolver {
			return taxonomy.NewResilientResolver(c, taxonomy.ResilienceOptions{})
		},
	}
	for stub, handler := range stubs {
		srv := httptest.NewServer(handler)
		for stack, wrap := range stacks {
			client := taxonomy.NewClient(srv.URL)
			client.Retries = 0
			outcome, err := sys.RunDetection(context.Background(), wrap(client), RunOptions{SkipLedger: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", stub, stack, err)
			}
			if outcome.Unavailable != outcome.DistinctNames || outcome.Unknown != 0 || outcome.Outdated != 0 {
				t.Errorf("%s/%s: %d names: %d unavailable, %d unknown, %d outdated; want all unavailable",
					stub, stack, outcome.DistinctNames, outcome.Unavailable, outcome.Unknown, outcome.Outdated)
			}
			if acc := outcome.Assessment.Dimensions[quality.DimAccuracy]; acc != 0 {
				t.Errorf("%s/%s: accuracy %.3f over names nobody checked", stub, stack, acc)
			}
		}
		srv.Close()
	}
}

// taggedResolver counts the names it is asked for.
type taggedResolver struct {
	inner taxonomy.Resolver
	calls atomic.Int64
}

func (r *taggedResolver) Resolve(ctx context.Context, name string) (taxonomy.Resolution, error) {
	r.calls.Add(1)
	return r.inner.Resolve(ctx, name)
}

// TestConcurrentRunsKeepTheirResolvers: runs handed different resolvers at
// the same time (a sync detect beside a scheduler backend) each execute only
// their own — a run binds its services in a registry of its own and never
// rebinds the system's shared one. Run under -race.
func TestConcurrentRunsKeepTheirResolvers(t *testing.T) {
	sys, taxa, _ := testSystem(t, 60, 12)
	const runsEach = 20
	resolvers := []*taggedResolver{{inner: taxa.Checklist}, {inner: taxa.Checklist}}
	var wg sync.WaitGroup
	for _, r := range resolvers {
		wg.Add(1)
		go func(r *taggedResolver) {
			defer wg.Done()
			for i := 0; i < runsEach; i++ {
				if _, err := sys.RunDetection(context.Background(), r, RunOptions{SkipLedger: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for i, r := range resolvers {
		if got, want := r.calls.Load(), int64(runsEach*12); got != want {
			t.Errorf("resolver %d answered %d names, want exactly its own runs' %d", i, got, want)
		}
	}
	for _, name := range []string{"col.resolve", "detect.summarize"} {
		if _, ok := sys.Registry.Lookup(name); ok {
			t.Errorf("detection runs registered %q in the shared registry", name)
		}
	}
}
