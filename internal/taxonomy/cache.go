package taxonomy

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// CachingResolver memoizes resolutions from an inner resolver with a TTL —
// the periodic-reassessment loop re-checks the same 1 929 names every tick,
// and the real Catalogue of Life is slow and only 90% available, so caching
// is what makes "verification performed frequently" affordable. Unknown
// names are cached too (negative caching); transient unavailability is not.
//
// Concurrent misses on the same name are coalesced into a single upstream
// request (singleflight): with the workflow engine dispatching iteration
// elements in parallel, N simultaneous lookups of one name would otherwise
// become N round trips against the slow authority — a thundering herd the
// old sequential engine merely masked. All waiters share the leader's
// result, including a transient ErrUnavailable (which is still not cached,
// so the next tick retries).
//
// Hot-path reads take only an RWMutex read lock and bump atomic counters,
// so cache hits never serialize against the writers that fill the cache or
// against each other.
type CachingResolver struct {
	Inner Resolver
	// TTL bounds entry lifetime (0 = cache forever). Expired entries are
	// re-fetched lazily.
	TTL time.Duration
	// Now supplies the clock (defaults to time.Now).
	Now func() time.Time

	mu      sync.RWMutex
	entries map[string]cacheEntry

	flightMu sync.Mutex
	flights  map[string]*flight

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
}

type cacheEntry struct {
	res   Resolution
	err   error
	added time.Time
}

// flight is one in-progress upstream resolution that concurrent misses of
// the same key wait on.
type flight struct {
	done chan struct{}
	res  Resolution
	err  error
}

// NewCachingResolver wraps inner with a TTL cache.
func NewCachingResolver(inner Resolver, ttl time.Duration) *CachingResolver {
	return &CachingResolver{
		Inner:   inner,
		TTL:     ttl,
		entries: make(map[string]cacheEntry),
		flights: make(map[string]*flight),
	}
}

func (c *CachingResolver) clock() func() time.Time {
	if c.Now != nil {
		return c.Now
	}
	return time.Now
}

func (c *CachingResolver) key(name string) string {
	key := Normalize(name)
	if key == "" {
		key = name // unparseable names still cache under their raw form
	}
	return key
}

// lookup returns the cached entry for key if present and fresh.
func (c *CachingResolver) lookup(key string, now func() time.Time) (cacheEntry, bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if ok && (c.TTL == 0 || now().Sub(e.added) <= c.TTL) {
		return e, true
	}
	return cacheEntry{}, false
}

// Resolve implements Resolver.
func (c *CachingResolver) Resolve(ctx context.Context, name string) (Resolution, error) {
	res, _, err := c.ResolveHit(ctx, name)
	return res, err
}

// ResolveHit resolves name and additionally reports whether the answer came
// from the fresh cache (hit == true). Coalesced waiters and upstream calls
// report hit == false — they paid (or shared) a round trip.
func (c *CachingResolver) ResolveHit(ctx context.Context, name string) (Resolution, bool, error) {
	now := c.clock()
	key := c.key(name)
	if e, ok := c.lookup(key, now); ok {
		c.hits.Add(1)
		return e.res, true, e.err
	}
	c.misses.Add(1)

	c.flightMu.Lock()
	if c.flights == nil {
		c.flights = make(map[string]*flight)
	}
	if f, inFlight := c.flights[key]; inFlight {
		c.flightMu.Unlock()
		c.coalesced.Add(1)
		<-f.done
		return f.res, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.flightMu.Unlock()

	// We are the flight leader. A previous leader may have filled the cache
	// between our miss and our registration — re-check before paying the
	// upstream round trip.
	if e, ok := c.lookup(key, now); ok {
		f.res, f.err = e.res, e.err
		c.finishFlight(key, f)
	} else {
		res, err := c.Inner.Resolve(ctx, name)
		// settle never caches transient authority failures: the next attempt
		// may succeed, and caching an outage would freeze it in place.
		c.settle(key, f, res, err, now)
	}
	return f.res, false, f.err
}

// Stale returns the last-known-good resolution for name, ignoring the TTL.
// Only error-free entries qualify — a cached "unknown name" is an answer we
// can degrade to, but it carries err != nil, so it is excluded along with
// everything else that was not a clean resolution. Because transient
// ErrUnavailable results are never cached, whatever Stale returns was once a
// genuine authority answer; the resilience layer serves it, marked Degraded,
// while the authority is unreachable.
func (c *CachingResolver) Stale(name string) (Resolution, bool) {
	key := c.key(name)
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok || e.err != nil {
		return Resolution{}, false
	}
	return e.res, true
}

// Stats reports cache hits and misses since construction. Coalesced waiters
// count as misses (they did not find an entry), and additionally as
// Coalesced.
func (c *CachingResolver) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Coalesced reports how many lookups joined another caller's in-flight
// upstream request instead of issuing their own.
func (c *CachingResolver) Coalesced() int64 { return c.coalesced.Load() }
