package taxonomy

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// BatchResolver is implemented by resolvers that can answer many names in
// one round trip. Results align with names; unknown names come back as
// StatusUnknown data rather than an error. The whole batch fails only when
// the authority was unreachable for every name.
//
// Every layer of the production stack implements it — Client (HTTP batch
// endpoint), CachingResolver (miss coalescing), ResilientResolver (one guard
// admission per batch) and the in-process Checklist — so a capability probe
// (DetailedBatch, which binds the detection workflow's col.resolve) sees the
// batch path through the full decorated stack, not just on a bare Client.
type BatchResolver interface {
	BatchResolve(ctx context.Context, names []string) ([]Resolution, error)
}

// BatchResult is one name's outcome inside a batch: the resolution plus the
// error the single-name Resolve path would have returned for it (unknown
// names carry ErrUnknownName, outages ErrUnavailable). It lets batch callers
// keep the exact per-name accounting of the sequential loop.
type BatchResult struct {
	Resolution Resolution
	Err        error
}

// DetailedBatchResolver is the lossless batch interface: per-name errors
// instead of the all-or-nothing error of BatchResolve.
type DetailedBatchResolver interface {
	BatchResolveDetail(ctx context.Context, names []string) []BatchResult
}

// DetailedBatch returns r's lossless batch form: r itself when it implements
// DetailedBatchResolver, an adapter reconstructing the per-name errors when
// it implements only BatchResolver, and nil when r resolves one name at a
// time. It is how a caller holding a plain Resolver discovers whether
// batching is on offer.
func DetailedBatch(r Resolver) DetailedBatchResolver {
	switch br := r.(type) {
	case DetailedBatchResolver:
		return br
	case BatchResolver:
		return detailFromBatch{br}
	}
	return nil
}

// unknownNameErr renders the same error the single-name paths produce
// (Checklist.Resolve, Client.Resolve), so batch and single resolution are
// byte-identical to error-string consumers.
func unknownNameErr(name string) error {
	return fmt.Errorf("%w: %q", ErrUnknownName, name)
}

// resolutionsFromDetail converts per-name results to BatchResolve's
// contract: unknowns become StatusUnknown data; the call errors only when
// every single name failed on availability.
func resolutionsFromDetail(names []string, details []BatchResult) ([]Resolution, error) {
	out := make([]Resolution, len(details))
	unavailable := 0
	var firstErr error
	for i, d := range details {
		if d.Err != nil && isAvailabilityFailure(d.Err) {
			unavailable++
			if firstErr == nil {
				firstErr = d.Err
			}
			out[i] = Resolution{Query: names[i], Status: StatusUnknown}
			continue
		}
		out[i] = d.Resolution
	}
	if len(details) > 0 && unavailable == len(details) {
		return nil, firstErr
	}
	return out, nil
}

// detailFromBatch adapts a plain BatchResolver's answer to per-name results,
// reconstructing the errors the single path would have produced.
type detailFromBatch struct {
	br BatchResolver
}

func (a detailFromBatch) BatchResolveDetail(ctx context.Context, names []string) []BatchResult {
	out := make([]BatchResult, len(names))
	results, err := a.br.BatchResolve(ctx, names)
	if err != nil || len(results) != len(names) {
		if err == nil {
			err = fmt.Errorf("taxonomy: batch returned %d results for %d names", len(results), len(names))
		}
		for i, name := range names {
			out[i] = BatchResult{Resolution: Resolution{Query: name, Status: StatusUnknown}, Err: err}
		}
		return out
	}
	for i, res := range results {
		var rerr error
		if res.Status == StatusUnknown && !res.Degraded {
			rerr = unknownNameErr(names[i])
		}
		out[i] = BatchResult{Resolution: res, Err: rerr}
	}
	return out
}

// BatchResolve implements BatchResolver over the cache: see
// BatchResolveDetail for the coalescing mechanics.
func (c *CachingResolver) BatchResolve(ctx context.Context, names []string) ([]Resolution, error) {
	return resolutionsFromDetail(names, c.BatchResolveDetail(ctx, names))
}

// BatchResolveDetail is the cache's batch fast path. Hits are answered from
// the cache exactly as single lookups would be; the misses are coalesced
// into ONE upstream batch round trip (when the inner resolver is
// batch-capable) instead of N sequential singles. Misses whose name is
// already being resolved by another caller join that flight, and duplicate
// names within the batch share one slot — the singleflight invariant "at
// most one upstream request per key at a time" holds across both paths.
func (c *CachingResolver) BatchResolveDetail(ctx context.Context, names []string) []BatchResult {
	now := c.clock()
	out := make([]BatchResult, len(names))
	settled := make([]bool, len(names))
	joins := make([]*flight, len(names)) // flights led by other callers (or dup names) to wait on

	// Pass 1: answer fresh-cache hits without touching the flight table.
	keys := make([]string, len(names))
	for i, name := range names {
		keys[i] = c.key(name)
		if e, ok := c.lookup(keys[i], now); ok {
			c.hits.Add(1)
			out[i] = BatchResult{Resolution: e.res, Err: e.err}
			settled[i] = true
		}
	}

	// Pass 2: register flights for the misses under one lock pass. A name
	// someone else is already resolving joins their flight; a name repeated
	// within this batch shares the first occurrence's flight; the rest are
	// flights this call leads.
	type lead struct {
		idx int
		f   *flight
	}
	var leads []lead
	c.flightMu.Lock()
	if c.flights == nil {
		c.flights = make(map[string]*flight)
	}
	led := make(map[string]*flight)
	for i := range names {
		if settled[i] {
			continue
		}
		c.misses.Add(1)
		if f, dup := led[keys[i]]; dup {
			joins[i] = f // in-batch duplicate: our own flight, already led
			continue
		}
		if f, inFlight := c.flights[keys[i]]; inFlight {
			c.coalesced.Add(1)
			joins[i] = f
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[keys[i]] = f
		led[keys[i]] = f
		leads = append(leads, lead{idx: i, f: f})
	}
	c.flightMu.Unlock()

	// Pass 3: a previous leader may have filled the cache between our miss
	// and our registration — re-check before paying the round trip, exactly
	// like the single-name leader does.
	pending := leads[:0]
	for _, ld := range leads {
		if e, ok := c.lookup(keys[ld.idx], now); ok {
			ld.f.res, ld.f.err = e.res, e.err
			c.finishFlight(keys[ld.idx], ld.f)
			out[ld.idx] = BatchResult{Resolution: e.res, Err: e.err}
			settled[ld.idx] = true
			continue
		}
		pending = append(pending, ld)
	}

	// Pass 4: dispatch the remaining leads — one upstream batch when the
	// inner resolver supports it and there is more than one name, otherwise
	// the single-name path per lead. The lossless form keeps each name's own
	// error (an unparseable name stays unparseable).
	if len(pending) > 0 {
		if batch := DetailedBatch(c.Inner); batch != nil && len(pending) > 1 {
			batchNames := make([]string, len(pending))
			for j, ld := range pending {
				batchNames[j] = names[ld.idx]
			}
			results := batch.BatchResolveDetail(ctx, batchNames)
			if len(results) != len(pending) {
				err := fmt.Errorf("taxonomy: batch returned %d results for %d names", len(results), len(pending))
				results = make([]BatchResult, len(pending))
				for j := range results {
					results[j] = BatchResult{Resolution: Resolution{Query: batchNames[j], Status: StatusUnknown}, Err: err}
				}
			}
			for j, ld := range pending {
				c.settle(keys[ld.idx], ld.f, results[j].Resolution, results[j].Err, now)
			}
		} else {
			for _, ld := range pending {
				res, err := c.Inner.Resolve(ctx, names[ld.idx])
				c.settle(keys[ld.idx], ld.f, res, err, now)
			}
		}
		for _, ld := range pending {
			out[ld.idx] = BatchResult{Resolution: ld.f.res, Err: ld.f.err}
			settled[ld.idx] = true
		}
	}

	// Pass 5: collect answers from flights other callers (or earlier slots
	// of this batch) led.
	for i, f := range joins {
		if f == nil || settled[i] {
			continue
		}
		<-f.done
		out[i] = BatchResult{Resolution: f.res, Err: f.err}
	}
	return out
}

// settle records a lead flight's outcome: cache it (unless it is a transient
// availability failure, or the caller's context ended the call — both must
// stay retryable), then release the flight so waiters wake.
func (c *CachingResolver) settle(key string, f *flight, res Resolution, err error, now func() time.Time) {
	f.res, f.err = res, err
	retryable := errors.Is(err, ErrUnavailable) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if !retryable {
		c.mu.Lock()
		if c.entries == nil {
			c.entries = make(map[string]cacheEntry)
		}
		c.entries[key] = cacheEntry{res: res, err: err, added: now()}
		c.mu.Unlock()
	}
	c.finishFlight(key, f)
}

// finishFlight removes the flight from the table and wakes its waiters. Only
// the flight's leader calls this, and the key cannot have been re-led while
// f was still registered, so the delete is always ours.
func (c *CachingResolver) finishFlight(key string, f *flight) {
	c.flightMu.Lock()
	delete(c.flights, key)
	c.flightMu.Unlock()
	close(f.done)
}
