package shard

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/fnjv"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// backends is one shard's stores. A router reads only the field it fronts.
type backends struct {
	shard int
	recs  *fnjv.Store
	prov  *provenance.Repository
	spans *telemetry.SpanStore
}

// live returns the shard's stores, or ErrShardDown.
func (s *Shard) live() (backends, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.down {
		return backends{}, fmt.Errorf("%w: %s", ErrShardDown, shardName(s.id))
	}
	return s.stores, nil
}

// router is the core the three typed routers embed: it resolves a shard's
// live backends and owns the three ways a call reaches them — route,
// scatter, and the merge of what scatter brings back.
type router struct {
	c *Cluster
}

// call is the one place a routed operation touches a shard: its live
// backends or ErrShardDown, then fn, then exactly one count against the
// shard's ops/errors gauges.
func (r router) call(sh *Shard, fn func(backends) error) error {
	b, err := sh.live()
	if err == nil {
		err = fn(b)
	}
	sh.ops.Add(1)
	if err != nil {
		sh.errs.Add(1)
	}
	return err
}

// route runs fn on the shard owning key. Per-ID methods are one route call
// whose closure fills their named results.
func (r router) route(key string, fn func(backends) error) error {
	return r.call(r.c.shards[r.c.OwnerIndex(key)], fn)
}

// scatter runs fn on every shard and returns the answers in shard order.
func scatter[T any](r router, op string, fn func(backends) (T, error)) ([]T, error) {
	return scatterOn(r, op, r.c.shards, fn)
}

// scatterOn runs one leg of fn per listed shard, concurrently, and returns
// the answers in list order. A down shard's leg fails fast with ErrShardDown;
// a leg that misses the cluster deadline reports ErrShardTimeout (its
// goroutine is abandoned — shard stores are safe under concurrent use, and a
// stuck leg must not stall the caller). The error joins every failed leg,
// each naming its shard — a scatter never returns a silently shorter answer.
func scatterOn[T any](r router, op string, legs []*Shard, fn func(backends) (T, error)) ([]T, error) {
	type answer struct {
		slot int
		val  T
		err  error
	}
	answers := make(chan answer, len(legs))
	for slot, sh := range legs {
		go func() {
			a := answer{slot: slot}
			a.err = r.call(sh, func(b backends) (err error) {
				a.val, err = fn(b)
				return err
			})
			answers <- a
		}()
	}
	vals := make([]T, len(legs))
	errs := make([]error, len(legs))
	for slot := range errs {
		errs[slot] = ErrShardTimeout // until the leg answers
	}
	timer := time.NewTimer(legDeadline)
	defer timer.Stop()
collect:
	for range legs {
		select {
		case a := <-answers:
			vals[a.slot], errs[a.slot] = a.val, a.err
		case <-timer.C:
			break collect
		}
	}
	var failed []error
	for slot, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("%s: %s: %w", op, shardName(legs[slot].id), err))
		}
	}
	return vals, errors.Join(failed...)
}

// merge is the one place per-shard lists become one list: concatenate, sort
// by cmp, drop duplicates when dedupe is set, keep the first limit entries
// when limit > 0. Each shard answers the caller's own ordering and limit, and
// a global top-k is always inside the union of per-shard top-ks, so the
// result is exactly the single store's answer. cut reports that the union
// overflowed limit; a paginated caller asks each shard for limit+1 entries,
// so cut means another page exists, and its cursor is the last entry kept.
func merge[T any](lists [][]T, cmp func(a, b T) int, limit int, dedupe bool) (out []T, cut bool) {
	out = slices.Concat(lists...)
	slices.SortFunc(out, cmp)
	if dedupe {
		out = slices.CompactFunc(out, func(a, b T) bool { return cmp(a, b) == 0 })
	}
	if limit > 0 && len(out) > limit {
		return out[:limit], true
	}
	return out, false
}
