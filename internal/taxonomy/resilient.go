package taxonomy

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// ResilienceOptions tunes a ResilientResolver. The zero value gets defaults
// suitable for an authority that answers in tens of milliseconds.
type ResilienceOptions struct {
	// TTL for the embedded cache (0 = cache forever).
	TTL time.Duration
	// CallTimeout bounds each upstream call (default 2s). This is the budget
	// that keeps one hung authority request from consuming a whole run's
	// deadline.
	CallTimeout time.Duration
	// MaxConcurrent bounds in-flight upstream calls (default 8).
	MaxConcurrent int
	// MaxWait is how long a call may wait for a bulkhead slot (default
	// CallTimeout; 0 after defaulting means reject immediately).
	MaxWait time.Duration
	// BatchTimeout bounds one upstream batch call (default 4×CallTimeout —
	// a batch is one connection doing many names' work, so it earns a
	// proportionally larger budget while still being bounded).
	BatchTimeout time.Duration
	// Breaker tunes the circuit breaker. IsFailure is always overridden:
	// only availability failures (ErrUnavailable, timeouts) count, a
	// cleanly-answered unknown name does not.
	Breaker resilience.BreakerOptions
}

func (o *ResilienceOptions) defaults() {
	if o.CallTimeout <= 0 {
		o.CallTimeout = 2 * time.Second
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 8
	}
	if o.MaxWait <= 0 {
		o.MaxWait = o.CallTimeout
	}
	if o.BatchTimeout <= 0 {
		o.BatchTimeout = 4 * o.CallTimeout
	}
}

// ResilientResolver wraps a Resolver (typically the HTTP Client) in the full
// fault-tolerance stack, outermost first:
//
//	cache  → singleflight CachingResolver; hits never touch the guards
//	guards → bulkhead (bounded concurrency) → circuit breaker → call budget
//	fallback → when the guarded call reports the authority unreachable, the
//	           last-known-good cache entry is served with Degraded set
//
// Degraded answers are real past answers, visibly marked, so an assessment
// completed during an outage records lower Q(availability) instead of either
// failing hard or silently passing stale data off as fresh. Only when no
// stale entry exists does the caller see ErrUnavailable.
type ResilientResolver struct {
	cache   *CachingResolver
	guarded *guardedResolver

	degraded atomic.Int64 // answers served stale during an outage
	hardMiss atomic.Int64 // outages with no stale entry to fall back on

	batchCalls atomic.Int64 // batch round trips through the stack
	batchNames atomic.Int64 // names carried by those batches

	resolveHist telemetry.Histogram // end-to-end Resolve latency
}

// guardedResolver is the cache's Inner: every cache miss pays the
// bulkhead/breaker/budget toll before reaching the real resolver.
type guardedResolver struct {
	inner       Resolver
	breaker     *resilience.Breaker
	bulkhead    *resilience.Bulkhead
	budget      resilience.Budget
	batchBudget resilience.Budget
}

func (g *guardedResolver) Resolve(ctx context.Context, name string) (res Resolution, err error) {
	err = g.bulkhead.Do(ctx, func() error {
		return g.breaker.Do(func() error {
			return callerCancelled(ctx, g.budget.Run(ctx, func(ctx context.Context) error {
				var rerr error
				res, rerr = g.inner.Resolve(ctx, name)
				return rerr
			}))
		})
	})
	if err != nil && (errors.Is(err, resilience.ErrOpen) || errors.Is(err, resilience.ErrSaturated)) {
		// Guard rejections are availability failures to callers — and
		// wrapping them in ErrUnavailable keeps them out of the cache.
		err = fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return res, err
}

// BatchResolve pays the bulkhead/breaker/budget toll ONCE for the whole
// batch — a batch is one authority connection, so it is one admission
// decision, one breaker sample and one (larger) timeout, not N of each.
func (g *guardedResolver) BatchResolve(ctx context.Context, names []string) (out []Resolution, err error) {
	err = g.bulkhead.Do(ctx, func() error {
		return g.breaker.Do(func() error {
			return callerCancelled(ctx, g.batchBudget.Run(ctx, func(ctx context.Context) error {
				var rerr error
				out, rerr = g.batchInner(ctx, names)
				return rerr
			}))
		})
	})
	if err != nil && (errors.Is(err, resilience.ErrOpen) || errors.Is(err, resilience.ErrSaturated)) {
		err = fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return out, err
}

// batchInner prefers the inner resolver's native batch call; a single-only
// inner is looped under the already-held admission, preserving BatchResolve's
// contract (unknowns are data, availability failures abort the batch).
func (g *guardedResolver) batchInner(ctx context.Context, names []string) ([]Resolution, error) {
	if br, ok := g.inner.(BatchResolver); ok {
		return br.BatchResolve(ctx, names)
	}
	out := make([]Resolution, len(names))
	for i, name := range names {
		res, err := g.inner.Resolve(ctx, name)
		if err != nil && !errors.Is(err, ErrUnknownName) {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// callerCancelled reports a call that failed once its caller had cancelled
// ctx as the bare context error: the authority did not fail it, so it is no
// breaker sample and no answer to cache.
func callerCancelled(ctx context.Context, err error) error {
	if err != nil && errors.Is(ctx.Err(), context.Canceled) {
		return ctx.Err()
	}
	return err
}

// isAvailabilityFailure classifies errors for both the breaker and the
// stale-fallback decision: outages and timeouts are failures, a resolved
// "unknown name" is an answer.
func isAvailabilityFailure(err error) bool {
	if err == nil || errors.Is(err, ErrUnknownName) {
		return false
	}
	return errors.Is(err, ErrUnavailable) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, resilience.ErrOpen) ||
		errors.Is(err, resilience.ErrSaturated)
}

// NewResilientResolver wraps inner in the cache + guard stack.
func NewResilientResolver(inner Resolver, opts ResilienceOptions) *ResilientResolver {
	opts.defaults()
	opts.Breaker.IsFailure = isAvailabilityFailure
	g := &guardedResolver{
		inner:       inner,
		breaker:     resilience.NewBreaker(opts.Breaker),
		bulkhead:    resilience.NewBulkhead(opts.MaxConcurrent, opts.MaxWait),
		budget:      resilience.Budget{Timeout: opts.CallTimeout},
		batchBudget: resilience.Budget{Timeout: opts.BatchTimeout},
	}
	return &ResilientResolver{
		cache:   NewCachingResolver(g, opts.TTL),
		guarded: g,
	}
}

// Resolve implements Resolver: cached answer, fresh guarded answer, or
// last-known-good answer marked Degraded — in that order. ErrUnavailable
// escapes only when the authority is unreachable AND the name has never been
// resolved before.
func (r *ResilientResolver) Resolve(ctx context.Context, name string) (Resolution, error) {
	ctx, sp := telemetry.StartSpan(ctx, "resolve", "taxonomy")
	start := time.Now()
	res, err := r.resolve(ctx, name, sp)
	r.resolveHist.Observe(time.Since(start))
	if sp != nil {
		sp.SetAttr("name", name)
		sp.SetAttr("breaker_state", r.BreakerState().String())
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}
	sp.Finish()
	return res, err
}

func (r *ResilientResolver) resolve(ctx context.Context, name string, sp *telemetry.Span) (Resolution, error) {
	res, hit, err := r.cache.ResolveHit(ctx, name)
	if hit {
		sp.SetAttr("cache_hit", "true")
	}
	if err == nil || !isAvailabilityFailure(err) {
		return res, err
	}
	if stale, ok := r.cache.Stale(name); ok {
		stale.Degraded = true
		r.degraded.Add(1)
		sp.SetAttr("degraded", "true")
		return stale, nil
	}
	r.hardMiss.Add(1)
	return res, err
}

// BatchResolve implements BatchResolver: see BatchResolveDetail.
func (r *ResilientResolver) BatchResolve(ctx context.Context, names []string) ([]Resolution, error) {
	return resolutionsFromDetail(names, r.BatchResolveDetail(ctx, names))
}

// BatchResolveDetail resolves the whole batch through the cache's coalescing
// fast path — one span, one histogram sample and (on misses) one guard
// admission for the lot — then applies the same per-name degraded fallback
// the single path uses: an availability failure with a last-known-good entry
// becomes that stale answer, visibly marked Degraded.
func (r *ResilientResolver) BatchResolveDetail(ctx context.Context, names []string) []BatchResult {
	ctx, sp := telemetry.StartSpan(ctx, "resolve-batch", "taxonomy")
	start := time.Now()
	r.batchCalls.Add(1)
	r.batchNames.Add(int64(len(names)))
	out := r.cache.BatchResolveDetail(ctx, names)
	degraded := 0
	for i := range out {
		if out[i].Err == nil || !isAvailabilityFailure(out[i].Err) {
			continue
		}
		if stale, ok := r.cache.Stale(names[i]); ok {
			stale.Degraded = true
			r.degraded.Add(1)
			degraded++
			out[i] = BatchResult{Resolution: stale}
			continue
		}
		r.hardMiss.Add(1)
	}
	r.resolveHist.Observe(time.Since(start))
	if sp != nil {
		sp.SetAttr("batch", strconv.Itoa(len(names)))
		sp.SetAttr("breaker_state", r.BreakerState().String())
		if degraded > 0 {
			sp.SetAttr("degraded", strconv.Itoa(degraded))
		}
	}
	sp.Finish()
	return out
}

// Cache exposes the embedded cache (for its hit and miss counts).
func (r *ResilientResolver) Cache() *CachingResolver { return r.cache }

// BreakerState reports the circuit breaker's current state.
func (r *ResilientResolver) BreakerState() resilience.State {
	return r.guarded.breaker.State()
}

// Degraded reports how many answers were served stale during outages.
func (r *ResilientResolver) Degraded() int64 { return r.degraded.Load() }

// Counters merges breaker, bulkhead, cache and fallback activity into one
// reading for obs.FromRuntimeMetrics.
func (r *ResilientResolver) Counters() map[string]float64 {
	m := r.guarded.breaker.Snapshot().Counters()
	for k, v := range r.guarded.bulkhead.Counters() {
		m[k] = v
	}
	hits, misses := r.cache.Stats()
	m["cache.hits"] = float64(hits)
	m["cache.misses"] = float64(misses)
	m["cache.coalesced"] = float64(r.cache.Coalesced())
	m["fallback.degraded"] = float64(r.degraded.Load())
	m["fallback.hard_miss"] = float64(r.hardMiss.Load())
	m["batch.calls"] = float64(r.batchCalls.Load())
	m["batch.names"] = float64(r.batchNames.Load())
	return telemetry.MergeCounters(m, r.resolveHist.Snapshot().Counters("resolve"))
}
