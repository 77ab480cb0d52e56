package taxonomy

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func newBenchServer(b *testing.B, svc *Service) string {
	server := httptest.NewServer(svc)
	b.Cleanup(server.Close)
	return server.URL
}

// countBatchResolver is a batch-capable inner resolver that counts how it
// was called, with a switchable outage.
type countBatchResolver struct {
	cl    *Checklist
	delay time.Duration // simulated round-trip latency

	mu         sync.Mutex
	down       bool
	singles    int
	batches    int
	batchNames int
}

func (c *countBatchResolver) Resolve(ctx context.Context, name string) (Resolution, error) {
	c.mu.Lock()
	c.singles++
	down := c.down
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	if down {
		return Resolution{Query: name, Status: StatusUnknown}, fmt.Errorf("%w: injected outage", ErrUnavailable)
	}
	return c.cl.Resolve(ctx, name)
}

func (c *countBatchResolver) BatchResolve(ctx context.Context, names []string) ([]Resolution, error) {
	c.mu.Lock()
	c.batches++
	c.batchNames += len(names)
	down := c.down
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay) // one round trip per batch, regardless of size
	}
	if down {
		return nil, fmt.Errorf("%w: injected outage", ErrUnavailable)
	}
	out := make([]Resolution, len(names))
	for i, name := range names {
		res, err := c.cl.Resolve(ctx, name)
		if err != nil {
			res = Resolution{Query: name, Status: StatusUnknown}
		}
		out[i] = res
	}
	return out, nil
}

func (c *countBatchResolver) setDown(down bool) {
	c.mu.Lock()
	c.down = down
	c.mu.Unlock()
}

func (c *countBatchResolver) counts() (singles, batches, batchNames int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.singles, c.batches, c.batchNames
}

// batchEpithet renders digit-free epithets ("speciesaa", "speciesab", ...)
// — the name parser rejects digits in scientific names.
func batchEpithet(i int) string {
	return "species" + string([]byte{byte('a' + i/26), byte('a' + i%26)})
}

func batchSpecies(i int) string { return "Hyla " + batchEpithet(i) }

func batchChecklist(t testing.TB) *Checklist {
	t.Helper()
	cl := NewChecklist()
	for i := 0; i < 40; i++ {
		taxon := &Taxon{
			ID:     fmt.Sprintf("T%02d", i),
			Name:   Name{Genus: "Hyla", Epithet: batchEpithet(i)},
			Status: StatusAccepted,
			Group:  "amphibians",
		}
		if err := cl.Add(taxon); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func batchNames16(off int) []string {
	names := make([]string, 16)
	for i := range names {
		names[i] = batchSpecies((off + i) % 40)
	}
	return names
}

func TestCachingResolverBatchCoalescesMissesIntoOneRoundTrip(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	c := NewCachingResolver(inner, 0)
	ctx := context.Background()
	names := append(batchNames16(0), "Unknownus unknownii")

	res, err := c.BatchResolve(ctx, names)
	if err != nil {
		t.Fatalf("BatchResolve: %v", err)
	}
	if singles, batches, batchNames := inner.counts(); singles != 0 || batches != 1 || batchNames != len(names) {
		t.Fatalf("cold batch hit upstream %d singles / %d batches (%d names), want one batch of %d",
			singles, batches, batchNames, len(names))
	}
	for i, name := range names[:16] {
		if res[i].Query != name || res[i].Status != StatusAccepted {
			t.Fatalf("result %d = %+v, want accepted %q", i, res[i], name)
		}
	}
	if res[16].Status != StatusUnknown {
		t.Fatalf("unknown name resolved to %+v", res[16])
	}

	// Second batch: every name (including the negative-cached unknown) is a
	// hit; upstream must not be touched again.
	if _, err := c.BatchResolve(ctx, names); err != nil {
		t.Fatalf("warm BatchResolve: %v", err)
	}
	if singles, batches, _ := inner.counts(); singles != 0 || batches != 1 {
		t.Fatalf("warm batch went upstream (%d singles / %d batches)", singles, batches)
	}
	if hits, _ := c.Stats(); hits != int64(len(names)) {
		t.Fatalf("warm batch recorded %d hits, want %d", hits, len(names))
	}
}

func TestCachingResolverBatchSharesDuplicateNames(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	c := NewCachingResolver(inner, 0)

	names := []string{batchSpecies(1), batchSpecies(1), batchSpecies(2), batchSpecies(1)}
	details := c.BatchResolveDetail(context.Background(), names)
	if _, batches, batchNames := inner.counts(); batches != 1 || batchNames != 2 {
		t.Fatalf("duplicates not shared: %d batches carrying %d names, want 1 carrying 2", batches, batchNames)
	}
	for i, d := range details {
		if d.Err != nil || d.Resolution.Status != StatusAccepted {
			t.Fatalf("result %d = %+v (%v)", i, d.Resolution, d.Err)
		}
	}
}

func TestCachingResolverBatchMatchesSingleResolves(t *testing.T) {
	cl := batchChecklist(t)
	names := append(batchNames16(0), "Unknownus unknownii", "not even parseable!")

	single := NewCachingResolver(&countBatchResolver{cl: cl}, 0)
	batch := NewCachingResolver(&countBatchResolver{cl: cl}, 0)
	ctx := context.Background()

	details := batch.BatchResolveDetail(ctx, names)
	for i, name := range names {
		wantRes, wantErr := single.Resolve(ctx, name)
		if !reflect.DeepEqual(details[i].Resolution, wantRes) {
			t.Errorf("%q: batch %+v, single %+v", name, details[i].Resolution, wantRes)
		}
		switch {
		case (wantErr == nil) != (details[i].Err == nil):
			t.Errorf("%q: batch err %v, single err %v", name, details[i].Err, wantErr)
		case wantErr != nil && !errors.Is(details[i].Err, ErrUnknownName):
			t.Errorf("%q: batch err %v not ErrUnknownName", name, details[i].Err)
		}
	}
}

func TestResilientBatchServesDegradedDuringOutage(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	r := NewResilientResolver(inner, ResilienceOptions{
		TTL:     time.Millisecond,
		Breaker: quickBreaker(),
	})
	ctx := context.Background()
	names := batchNames16(0)

	if _, err := r.BatchResolve(ctx, names); err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	time.Sleep(5 * time.Millisecond) // expire the TTL
	inner.setDown(true)

	details := r.BatchResolveDetail(ctx, names)
	for i, d := range details {
		if d.Err != nil {
			t.Fatalf("%q: outage batch returned error %v, want degraded answer", names[i], d.Err)
		}
		if !d.Resolution.Degraded {
			t.Fatalf("%q: outage answer not marked Degraded: %+v", names[i], d.Resolution)
		}
	}
	if got := r.Degraded(); got != int64(len(names)) {
		t.Fatalf("Degraded() = %d, want %d", got, len(names))
	}

	// BatchResolve still reports success — every name had a fallback.
	res, err := r.BatchResolve(ctx, names)
	if err != nil || len(res) != len(names) {
		t.Fatalf("outage BatchResolve: %d results, %v", len(res), err)
	}
}

func TestResilientBatchOutageWithoutFallbackFailsWholeBatch(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	inner.setDown(true)
	r := NewResilientResolver(inner, ResilienceOptions{Breaker: quickBreaker()})

	res, err := r.BatchResolve(context.Background(), batchNames16(0))
	if err == nil || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("cold outage batch: res=%v err=%v, want ErrUnavailable", res, err)
	}
}

// BenchmarkResolveBatch compares resolving 16 cold names through the full
// resilient stack over HTTP: name-by-name (16 round trips) versus one batch
// (1 round trip). The authority carries a small fixed latency so the
// benchmark reflects the paper's slow remote Catalogue of Life, not
// loopback speed. The acceptance bar is batch16 >= 3x the single-name
// throughput.
func BenchmarkResolveBatch(b *testing.B) {
	cl := batchChecklist(b)
	svc := NewService(cl, WithLatency(200*time.Microsecond))
	server := newBenchServer(b, svc)
	names := batchNames16(0)

	b.Run("single-16names", func(b *testing.B) {
		client := NewClient(server)
		r := NewResilientResolver(client, ResilienceOptions{})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flushCache(r.Cache()) // every iteration pays the cold-miss round trips
			for _, name := range names {
				if _, err := r.Resolve(ctx, name); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*len(names))/b.Elapsed().Seconds(), "names/s")
	})
	b.Run("batch16", func(b *testing.B) {
		client := NewClient(server)
		client.spacing = 0 // what the stack can do, not what the client's pacing allows
		r := NewResilientResolver(client, ResilienceOptions{})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flushCache(r.Cache())
			if _, err := r.BatchResolve(ctx, names); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(names))/b.Elapsed().Seconds(), "names/s")
	})
}

// flushCache drops every entry of c, so the next lookup of any name is a
// cold miss.
func flushCache(c *CachingResolver) {
	c.mu.Lock()
	c.entries = make(map[string]cacheEntry)
	c.mu.Unlock()
}
