package shard

import (
	"strings"

	"repro/internal/fnjv"
)

// RecordRouter implements fnjv.Records across the cluster: per-ID operations
// route to the owning shard, collection-wide operations scatter and merge
// back into the store's ascending-ID contract.
type RecordRouter struct{ router }

var _ fnjv.Records = (*RecordRouter)(nil)

// PutAll implements fnjv.Records, batching each shard's slice through its
// own store so ingest keeps the per-shard batch-apply fast path. Only shards
// that own part of the batch get a leg: ingest for one tenant does not fail
// because an unrelated shard is down.
func (r *RecordRouter) PutAll(records []*fnjv.Record) error {
	batches := make([][]*fnjv.Record, len(r.c.shards))
	for _, rec := range records {
		idx := r.c.OwnerIndex(rec.ID)
		batches[idx] = append(batches[idx], rec)
	}
	var owners []*Shard
	for i, batch := range batches {
		if len(batch) > 0 {
			owners = append(owners, r.c.shards[i])
		}
	}
	_, err := scatterOn(r.router, "records.PutAll", owners, func(b backends) (struct{}, error) {
		return struct{}{}, b.recs.PutAll(batches[b.shard])
	})
	return err
}

// Get implements fnjv.Records.
func (r *RecordRouter) Get(id string) (rec *fnjv.Record, err error) {
	err = r.route(id, func(b backends) error {
		rec, err = b.recs.Get(id)
		return err
	})
	return rec, err
}

// Update implements fnjv.Records.
func (r *RecordRouter) Update(rec *fnjv.Record) error {
	return r.route(rec.ID, func(b backends) error { return b.recs.Update(rec) })
}

// Len implements fnjv.Records. The interface carries no error, so a shard
// that fails mid-scatter counts as empty.
func (r *RecordRouter) Len() int {
	counts, _ := scatter(r.router, "records.Len", func(b backends) (int, error) { return b.recs.Len(), nil })
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// lists scatters a record listing and merges it with the store's own
// ordering ("" is ascending ID) and limit.
func (r *RecordRouter) lists(op, orderBy string, limit int, list func(*fnjv.Store) ([]*fnjv.Record, error)) ([]*fnjv.Record, error) {
	order, err := fnjv.RecordOrder(orderBy)
	if err != nil {
		return nil, err
	}
	lists, err := scatter(r.router, op, func(b backends) ([]*fnjv.Record, error) { return list(b.recs) })
	if err != nil {
		return nil, err
	}
	recs, _ := merge(lists, order, limit, false)
	return recs, nil
}

// Scan implements fnjv.Records. The merge materialises each shard's records
// before visiting — the price of keeping the single-store ascending-ID
// contract over hash-spread rows.
func (r *RecordRouter) Scan(fn func(*fnjv.Record) bool) error {
	all, err := r.lists("records.Scan", "", 0, func(st *fnjv.Store) (out []*fnjv.Record, err error) {
		err = st.Scan(func(rec *fnjv.Record) bool {
			out = append(out, rec)
			return true
		})
		return out, err
	})
	if err != nil {
		return err
	}
	for _, rec := range all {
		if !fn(rec) {
			break
		}
	}
	return nil
}

// ScanSpecies implements fnjv.Records. Tenant affinity pins every
// tenant-qualified ID to a single shard, so a tenant's scan touches only that
// shard — a tenant keeps serving while unrelated shards are down, and pays no
// scatter for its own working set. The default tenant scatters, and the merge
// restores the single store's ascending-ID order.
func (r *RecordRouter) ScanSpecies(tenant string, fn func(id, species string) bool) error {
	if tenant != "" {
		return r.route(tenant+Sep, func(b backends) error { return b.recs.ScanSpecies(tenant, fn) })
	}
	type pair struct{ id, species string }
	lists, err := scatter(r.router, "records.ScanSpecies", func(b backends) (out []pair, err error) {
		err = b.recs.ScanSpecies("", func(id, species string) bool {
			out = append(out, pair{id, species})
			return true
		})
		return out, err
	})
	if err != nil {
		return err
	}
	all, _ := merge(lists, func(a, b pair) int { return strings.Compare(a.id, b.id) }, 0, false)
	for _, p := range all {
		if !fn(p.id, p.species) {
			break
		}
	}
	return nil
}

// DistinctSpecies implements fnjv.Records, summing per-shard counts.
func (r *RecordRouter) DistinctSpecies() (map[string]int, error) {
	maps, err := scatter(r.router, "records.DistinctSpecies", func(b backends) (map[string]int, error) {
		return b.recs.DistinctSpecies()
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, m := range maps {
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// Stats implements fnjv.Records. Additive fields sum across shards; the
// distinct-species count needs the cross-shard union, since one species'
// records can hash to several shards.
func (r *RecordRouter) Stats() (fnjv.Stats, error) {
	stats, err := scatter(r.router, "records.Stats", func(b backends) (fnjv.Stats, error) { return b.recs.Stats() })
	if err != nil {
		return fnjv.Stats{}, err
	}
	var out fnjv.Stats
	for _, s := range stats {
		out.Records += s.Records
		out.WithCoordinates += s.WithCoordinates
		out.WithEnvFields += s.WithEnvFields
		out.WithHabitat += s.WithHabitat
	}
	distinct, err := r.DistinctSpecies()
	if err != nil {
		return fnjv.Stats{}, err
	}
	out.DistinctSpecies = len(distinct)
	return out, nil
}

// Query implements fnjv.Records: each shard answers the same predicate,
// ordering and limit, and the merge re-sorts with the store's comparator and
// truncates.
func (r *RecordRouter) Query(pred fnjv.Predicate, opts fnjv.QueryOptions) ([]*fnjv.Record, error) {
	return r.lists("records.Query", opts.OrderBy, opts.Limit, func(st *fnjv.Store) ([]*fnjv.Record, error) {
		return st.Query(pred, opts)
	})
}
