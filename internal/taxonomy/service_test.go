package taxonomy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServiceResolveHTTP(t *testing.T) {
	cl := demoChecklist(t)
	when := time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC)
	repl := &Taxon{ID: "T9", Name: Name{Genus: "Elachistocleis", Epithet: "cesarii"}, Status: StatusAccepted, Group: "amphibians"}
	if err := cl.Deprecate("Elachistocleis ovalis", repl, when, "Caramaschi (2010)"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewService(cl))
	defer srv.Close()
	client := NewClient(srv.URL)

	res, err := client.Resolve(context.Background(), "Elachistocleis ovalis")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSynonym || res.AcceptedName != "Elachistocleis cesarii" {
		t.Fatalf("remote resolve = %+v", res)
	}
	if len(res.History) != 1 || res.History[0].Reference != "Caramaschi (2010)" {
		t.Fatalf("history lost over the wire: %+v", res.History)
	}
	if !res.History[0].Date.Equal(when) {
		t.Fatalf("history date = %v, want %v", res.History[0].Date, when)
	}

	res, err = client.Resolve(context.Background(), "Scinax fuscomarginatus")
	if err != nil || res.Status != StatusAccepted {
		t.Fatalf("accepted over wire = %+v, %v", res, err)
	}
	if res.Classification.Class != "Amphibia" {
		t.Fatalf("classification lost: %+v", res.Classification)
	}

	if _, err := client.Resolve(context.Background(), "Missing species"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("unknown over wire: %v", err)
	}
	if client.ObservedAvailability() != 1.0 {
		t.Fatalf("availability = %f with no faults", client.ObservedAvailability())
	}
}

func TestServiceFuzzyHTTP(t *testing.T) {
	cl := demoChecklist(t)
	srv := httptest.NewServer(NewService(cl, WithFuzzy(2)))
	defer srv.Close()
	client := NewClient(srv.URL)
	res, err := client.Resolve(context.Background(), "Scinax fuscomarginatis")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fuzzy || res.Distance != 1 {
		t.Fatalf("fuzzy flags lost over wire: %+v", res)
	}
}

func TestServiceAvailabilityInjection(t *testing.T) {
	cl := demoChecklist(t)
	// 50% availability, client retries up to 5 times: most requests succeed
	// eventually, and the client measures roughly the injected rate.
	svc := NewService(cl, WithAvailability(0.5, 99))
	srv := httptest.NewServer(svc)
	defer srv.Close()
	client := NewClient(srv.URL)
	client.Retries = 5
	client.Backoff = 0

	succ := 0
	for i := 0; i < 200; i++ {
		if _, err := client.Resolve(context.Background(), "Hyla faber"); err == nil {
			succ++
		}
	}
	if succ < 190 {
		t.Fatalf("only %d/200 eventually succeeded at 50%% availability with 5 retries", succ)
	}
	av := client.ObservedAvailability()
	if av < 0.40 || av > 0.60 {
		t.Fatalf("observed availability %.3f, want ≈0.5", av)
	}
	requests, refused := svc.Stats()
	if requests == 0 || refused == 0 {
		t.Fatalf("stats requests=%d refused=%d", requests, refused)
	}
}

func TestServiceTotalOutage(t *testing.T) {
	cl := demoChecklist(t)
	srv := httptest.NewServer(NewService(cl, WithAvailability(0, 1)))
	defer srv.Close()
	client := NewClient(srv.URL)
	client.Retries = 2
	client.Backoff = 0
	_, err := client.Resolve(context.Background(), "Hyla faber")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("outage error = %v, want ErrUnavailable", err)
	}
	if client.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", client.Attempts())
	}
	if client.ObservedAvailability() != 0 {
		t.Fatalf("availability = %f during total outage", client.ObservedAvailability())
	}
}

func TestServiceEndpoints(t *testing.T) {
	cl := demoChecklist(t)
	srv := httptest.NewServer(NewService(cl))
	defer srv.Close()
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/healthz", http.StatusOK},
		{"/stats", http.StatusOK},
		{"/resolve", http.StatusBadRequest}, // missing name
		{"/bogus", http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestBatchResolve(t *testing.T) {
	cl := demoChecklist(t)
	when := time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC)
	repl := &Taxon{ID: "T9", Name: Name{Genus: "Elachistocleis", Epithet: "cesarii"}, Status: StatusAccepted}
	if err := cl.Deprecate("Elachistocleis ovalis", repl, when, "ref"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewService(cl))
	defer srv.Close()
	client := NewClient(srv.URL)

	names := []string{"Elachistocleis ovalis", "Hyla faber", "Unknown species"}
	results, err := client.BatchResolve(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Status != StatusSynonym || results[0].AcceptedName != "Elachistocleis cesarii" {
		t.Fatalf("batch[0] = %+v", results[0])
	}
	if results[1].Status != StatusAccepted {
		t.Fatalf("batch[1] = %+v", results[1])
	}
	if results[2].Status != StatusUnknown {
		t.Fatalf("batch[2] = %+v", results[2])
	}
}

func TestBatchResolveRetriesOnOutage(t *testing.T) {
	cl := demoChecklist(t)
	srv := httptest.NewServer(NewService(cl, WithAvailability(0.5, 42)))
	defer srv.Close()
	client := NewClient(srv.URL)
	client.Retries = 10
	client.Backoff = 0
	for i := 0; i < 20; i++ {
		if _, err := client.BatchResolve(context.Background(), []string{"Hyla faber"}); err != nil {
			t.Fatalf("batch %d failed despite retries: %v", i, err)
		}
	}
	// Total outage -> ErrUnavailable.
	srv2 := httptest.NewServer(NewService(cl, WithAvailability(0, 1)))
	defer srv2.Close()
	client2 := NewClient(srv2.URL)
	client2.Retries = 1
	client2.Backoff = 0
	if _, err := client2.BatchResolve(context.Background(), []string{"Hyla faber"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("outage: %v", err)
	}
}

func TestBatchEndpointValidation(t *testing.T) {
	cl := demoChecklist(t)
	srv := httptest.NewServer(NewService(cl))
	defer srv.Close()
	// GET rejected.
	resp, err := http.Get(srv.URL + "/resolve_batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch: %d", resp.StatusCode)
	}
	// Bad JSON.
	resp, err = http.Post(srv.URL+"/resolve_batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}
	// Empty batch.
	resp, err = http.Post(srv.URL+"/resolve_batch", "application/json", strings.NewReader(`{"names":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", resp.StatusCode)
	}
}

// TestBatchResolveSplitsOversizeRequests: the service rejects more than
// MaxBatch names with a non-retryable 400, so the client must never send
// such a request — MaxBatch+1 names travel as two requests and come back as
// one aligned answer.
func TestBatchResolveSplitsOversizeRequests(t *testing.T) {
	svc := NewService(demoChecklist(t))
	srv := httptest.NewServer(svc)
	defer srv.Close()
	client := NewClient(srv.URL)

	names := make([]string, MaxBatch+1)
	for i := range names {
		names[i] = fmt.Sprintf("Nomen nescio%d", i)
	}
	// Known names on both sides of the split.
	names[0], names[MaxBatch-1], names[MaxBatch] = "Hyla faber", "Hyla faber", "Hyla faber"
	results, err := client.BatchResolve(context.Background(), names)
	if err != nil {
		t.Fatalf("oversize batch: %v", err)
	}
	if len(results) != len(names) {
		t.Fatalf("%d results for %d names", len(results), len(names))
	}
	for i, res := range results {
		want := StatusUnknown
		if names[i] == "Hyla faber" {
			want = StatusAccepted
		}
		if res.Status != want || res.Query != names[i] {
			t.Fatalf("result %d = %+v, want %v for %q", i, res, want, names[i])
		}
	}
	if requests, _ := svc.Stats(); requests != 2 {
		t.Fatalf("client sent %d requests for %d names, want 2", requests, len(names))
	}

	// At the limit it is still one request, and the raw endpoint still
	// refuses what the client no longer sends.
	if _, err := client.BatchResolve(context.Background(), names[:MaxBatch]); err != nil {
		t.Fatal(err)
	}
	if requests, _ := svc.Stats(); requests != 3 {
		t.Fatalf("a MaxBatch-name request was split: %d requests in total", requests)
	}
	body, _ := json.Marshal(batchRequest{Names: names})
	resp, err := http.Post(srv.URL+"/resolve_batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize raw request: %d", resp.StatusCode)
	}
}

// TestBatchRequestsArePaced: bulk requests from one client — sequential,
// concurrent, retried — start at least BatchSpacing apart, single-name
// requests are never held, a caller whose context ends while it waits for
// its slot is let go, and a Client not built by NewClient has no spacing.
func TestBatchRequestsArePaced(t *testing.T) {
	var mu sync.Mutex
	var bulk []time.Time
	refuse := 1 // the first bulk request is refused, so one start is a retry
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/resolve_batch" {
			json.NewEncoder(w).Encode(wireResolution{Query: r.URL.Query().Get("name"), Status: "accepted"})
			return
		}
		mu.Lock()
		bulk = append(bulk, time.Now())
		drop := refuse > 0
		refuse--
		mu.Unlock()
		if drop {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		var req batchRequest
		json.NewDecoder(r.Body).Decode(&req)
		resp := batchResponse{Results: make([]wireResolution, len(req.Names))}
		for i, name := range req.Names {
			resp.Results[i] = wireResolution{Query: name, Status: "accepted"}
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer stub.Close()
	arrivals := func() []time.Time {
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Time(nil), bulk...)
	}

	const spacing = 40 * time.Millisecond
	client := NewClient(stub.URL)
	if client.spacing != BatchSpacing {
		t.Fatal("NewClient does not pace bulk requests")
	}
	client.spacing, client.Backoff = spacing, time.Millisecond
	ctx := context.Background()
	names := []string{"Hyla faber", "Scinax ruber"}

	for i := 0; i < 3; i++ {
		if _, err := client.BatchResolve(ctx, names); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.BatchResolve(ctx, names); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got := arrivals()
	if len(got) != 7 {
		t.Fatalf("%d bulk requests, want 3 sequential + 1 retry + 3 concurrent", len(got))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Before(got[j]) })
	for i := 1; i < len(got); i++ {
		// Arrival times, not send times: a dial or a busy box delays one
		// request and not the next. Unpaced, the gaps are a millisecond.
		if gap := got[i].Sub(got[i-1]); gap < spacing/2 {
			t.Errorf("bulk requests %d and %d arrived %v apart, want >= %v", i-1, i, gap, spacing)
		}
	}

	// Single-name requests take no slot and wait for none.
	before := client.nextBatch
	for i := 0; i < 5; i++ {
		if _, err := client.Resolve(ctx, "Hyla faber"); err != nil {
			t.Fatal(err)
		}
	}
	if !client.nextBatch.Equal(before) {
		t.Error("single-name requests moved the bulk-request schedule")
	}

	// A caller cancelled while it waits for its slot returns ErrUnavailable
	// without sending.
	client.spacing = time.Hour
	if _, err := client.BatchResolve(ctx, names); err != nil { // takes the free slot; the next is an hour away
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	sent := len(arrivals())
	if _, err := client.BatchResolve(short, names); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("cancelled while waiting for a slot: %v", err)
	}
	if len(arrivals()) != sent {
		t.Error("a cancelled caller still sent its request")
	}

	unpaced := &Client{BaseURL: stub.URL, HTTP: http.DefaultClient}
	for i := 0; i < 3; i++ {
		if _, err := unpaced.BatchResolve(ctx, names); err != nil {
			t.Fatal(err)
		}
	}
	if !unpaced.nextBatch.IsZero() {
		t.Error("a client with no spacing keeps a schedule")
	}
}

// TestDetailedBatchProbe pins the capability probe core registers the batch
// form of col.resolve by: the in-process checklist and the resilient stack
// are their own lossless batch form, a plain BatchResolver gets an adapter,
// and a resolver with no batch capability gets none.
func TestDetailedBatchProbe(t *testing.T) {
	cl := demoChecklist(t)
	if got := DetailedBatch(cl); got != DetailedBatchResolver(cl) {
		t.Errorf("the in-process checklist probed as %T, want itself", got)
	}
	if DetailedBatch(&countResolver{inner: cl}) != nil {
		t.Error("a single-name resolver claims a batch form")
	}
	rr := NewResilientResolver(cl, ResilienceOptions{})
	if got := DetailedBatch(rr); got != DetailedBatchResolver(rr) {
		t.Errorf("resilient stack probed as %T", got)
	}
	srv := httptest.NewServer(NewService(cl))
	defer srv.Close()
	adapted := DetailedBatch(NewClient(srv.URL))
	if adapted == nil {
		t.Fatal("bare client lost its batch capability")
	}
	out := adapted.BatchResolveDetail(context.Background(), []string{"Hyla faber", "Unknown species"})
	if len(out) != 2 || out[0].Err != nil || out[0].Resolution.Status != StatusAccepted || !errors.Is(out[1].Err, ErrUnknownName) {
		t.Fatalf("adapted batch = %+v", out)
	}
}

func TestWireRoundTrip(t *testing.T) {
	r := Resolution{
		Query:        "X y",
		Status:       StatusSynonym,
		TaxonID:      "T1",
		AcceptedName: "A b",
		AcceptedID:   "T2",
		Group:        "birds",
		Classification: Classification{
			Phylum: "Chordata", Class: "Aves", Order: "Passeriformes", Family: "Tyrannidae",
		},
		Fuzzy:    true,
		Distance: 2,
		History:  []NomenclaturalEvent{{Date: time.Date(2001, 2, 3, 0, 0, 0, 0, time.UTC), FromName: "X y", ToName: "A b", Reference: "ref"}},
	}
	got := fromWire(toWire(r))
	if got.Status != r.Status || got.AcceptedName != r.AcceptedName || got.Group != r.Group ||
		got.Classification != r.Classification || !got.Fuzzy || got.Distance != 2 || len(got.History) != 1 {
		t.Fatalf("wire round trip lost data: %+v", got)
	}
	for _, s := range []Status{StatusAccepted, StatusProvisional, StatusUnknown} {
		if fromWire(toWire(Resolution{Status: s})).Status != s {
			t.Fatalf("status %v does not round-trip", s)
		}
	}
}
