package taxonomy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

type countResolver struct {
	mu    sync.Mutex
	inner Resolver
	calls int
	fail  bool
}

func (c *countResolver) Resolve(ctx context.Context, name string) (Resolution, error) {
	c.mu.Lock()
	c.calls++
	fail := c.fail
	c.mu.Unlock()
	if fail {
		return Resolution{Query: name, Status: StatusUnknown}, fmt.Errorf("wrapped: %w", ErrUnavailable)
	}
	return c.inner.Resolve(ctx, name)
}

func (c *countResolver) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func TestCachingResolverMemoizes(t *testing.T) {
	cl := demoChecklist(t)
	inner := &countResolver{inner: cl}
	cache := NewCachingResolver(inner, 0)
	for i := 0; i < 5; i++ {
		res, err := cache.Resolve(context.Background(), "Hyla faber")
		if err != nil || res.Status != StatusAccepted {
			t.Fatalf("resolve %d: %+v, %v", i, res, err)
		}
	}
	if inner.Calls() != 1 {
		t.Fatalf("inner called %d times", inner.Calls())
	}
	hits, misses := cache.Stats()
	if hits != 4 || misses != 1 {
		t.Fatalf("stats = %d hits %d misses", hits, misses)
	}
	// Normalized variants share an entry.
	if _, err := cache.Resolve(context.Background(), "  hyla   FABER "); err != nil {
		t.Fatal(err)
	}
	if inner.Calls() != 1 {
		t.Fatalf("normalized variant missed cache: %d calls", inner.Calls())
	}
}

func TestCachingResolverNegativeCaching(t *testing.T) {
	cl := demoChecklist(t)
	inner := &countResolver{inner: cl}
	cache := NewCachingResolver(inner, 0)
	for i := 0; i < 3; i++ {
		if _, err := cache.Resolve(context.Background(), "Missing species"); !errors.Is(err, ErrUnknownName) {
			t.Fatalf("unknown resolve %d: %v", i, err)
		}
	}
	if inner.Calls() != 1 {
		t.Fatalf("negative result not cached: %d calls", inner.Calls())
	}
}

func TestCachingResolverDoesNotCacheOutages(t *testing.T) {
	cl := demoChecklist(t)
	inner := &countResolver{inner: cl, fail: true}
	cache := NewCachingResolver(inner, 0)
	if _, err := cache.Resolve(context.Background(), "Hyla faber"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("outage: %v", err)
	}
	// The authority recovers: the next call must reach it.
	inner.mu.Lock()
	inner.fail = false
	inner.mu.Unlock()
	res, err := cache.Resolve(context.Background(), "Hyla faber")
	if err != nil || res.Status != StatusAccepted {
		t.Fatalf("post-recovery: %+v, %v", res, err)
	}
	if inner.Calls() != 2 {
		t.Fatalf("outage was cached: %d calls", inner.Calls())
	}
}

func TestCachingResolverTTL(t *testing.T) {
	cl := demoChecklist(t)
	inner := &countResolver{inner: cl}
	cache := NewCachingResolver(inner, time.Hour)
	now := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	cache.Now = func() time.Time { return now }
	cache.Resolve(context.Background(), "Hyla faber")
	cache.Resolve(context.Background(), "Hyla faber")
	if inner.Calls() != 1 {
		t.Fatalf("calls = %d", inner.Calls())
	}
	// Advance beyond the TTL: refetch.
	now = now.Add(2 * time.Hour)
	cache.Resolve(context.Background(), "Hyla faber")
	if inner.Calls() != 2 {
		t.Fatalf("TTL not honored: %d calls", inner.Calls())
	}
}

// blockingResolver parks every Resolve until released, so a test can hold
// an upstream call in flight while more callers pile up on the same key.
type blockingResolver struct {
	inner   Resolver
	entered chan struct{} // one tick per upstream call started
	release chan struct{} // closed to let upstream calls finish
	fail    bool
}

func (b *blockingResolver) Resolve(ctx context.Context, name string) (Resolution, error) {
	b.entered <- struct{}{}
	<-b.release
	if b.fail {
		return Resolution{Query: name, Status: StatusUnknown}, fmt.Errorf("wrapped: %w", ErrUnavailable)
	}
	return b.inner.Resolve(ctx, name)
}

// waitCoalesced blocks until n lookups have joined an in-flight request.
func waitCoalesced(t *testing.T, cache *CachingResolver, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for cache.Coalesced() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters coalesced", cache.Coalesced(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCachingResolverSingleflight(t *testing.T) {
	const waiters = 16
	cl := demoChecklist(t)
	block := &blockingResolver{inner: cl, entered: make(chan struct{}, waiters+1), release: make(chan struct{})}
	inner := &countResolver{inner: block}
	cache := NewCachingResolver(inner, 0)

	results := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			res, err := cache.Resolve(context.Background(), "Hyla faber")
			if err == nil && res.Status != StatusAccepted {
				err = fmt.Errorf("status %v", res.Status)
			}
			results <- err
		}()
	}
	// Exactly one goroutine reaches the upstream; the rest must be waiting
	// on its flight, not queued for their own round trips.
	<-block.entered
	waitCoalesced(t, cache, waiters-1)
	select {
	case <-block.entered:
		t.Fatal("second upstream call issued for a coalesced key")
	default:
	}
	close(block.release)
	for i := 0; i < waiters; i++ {
		if err := <-results; err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if inner.Calls() != 1 {
		t.Fatalf("upstream called %d times for %d concurrent misses", inner.Calls(), waiters)
	}
	if got := cache.Coalesced(); got != waiters-1 {
		t.Fatalf("coalesced = %d, want %d", got, waiters-1)
	}
	hits, misses := cache.Stats()
	if hits != 0 || misses != waiters {
		t.Fatalf("stats = %d hits %d misses", hits, misses)
	}
	// The leader populated the cache: later lookups are plain hits.
	if _, err := cache.Resolve(context.Background(), "Hyla faber"); err != nil {
		t.Fatal(err)
	}
	if inner.Calls() != 1 {
		t.Fatalf("cache not populated by flight leader: %d calls", inner.Calls())
	}
}

func TestCachingResolverSingleflightSharesOutage(t *testing.T) {
	const waiters = 6
	cl := demoChecklist(t)
	block := &blockingResolver{inner: cl, entered: make(chan struct{}, waiters+1), release: make(chan struct{}), fail: true}
	inner := &countResolver{inner: block}
	cache := NewCachingResolver(inner, 0)

	results := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := cache.Resolve(context.Background(), "Hyla faber")
			results <- err
		}()
	}
	// Hold the leader's flight open until every other goroutine has joined
	// it — an outage is not cached, so a latecomer arriving after the flight
	// closed would (correctly) open its own.
	<-block.entered
	waitCoalesced(t, cache, waiters-1)
	close(block.release)
	// Every waiter sees the leader's transient failure...
	for i := 0; i < waiters; i++ {
		if err := <-results; !errors.Is(err, ErrUnavailable) {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if inner.Calls() != 1 {
		t.Fatalf("upstream called %d times", inner.Calls())
	}
	// ...but the outage is not cached: a later lookup retries upstream.
	block.fail = false
	res, err := cache.Resolve(context.Background(), "Hyla faber")
	if err != nil || res.Status != StatusAccepted {
		t.Fatalf("post-recovery: %+v, %v", res, err)
	}
	if inner.Calls() != 2 {
		t.Fatalf("shared outage was cached: %d calls", inner.Calls())
	}
}

func TestCachingResolverConcurrent(t *testing.T) {
	cl := demoChecklist(t)
	cache := NewCachingResolver(cl, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				cache.Resolve(context.Background(), "Hyla faber")
				cache.Resolve(context.Background(), "Elachistocleis ovalis")
			}
		}()
	}
	wg.Wait()
}
