package fnjv

// Records is the collection-store surface consumed by core and the web
// service. *Store implements it directly; shard.RecordRouter implements it
// by routing per-ID operations to the owning shard and merging cross-shard
// scans under the store's ID ordering.
type Records interface {
	PutAll(records []*Record) error
	Get(id string) (*Record, error)
	Update(r *Record) error
	Len() int
	// Scan visits every record in ascending ID order until fn returns false.
	Scan(fn func(*Record) bool) error
	// ScanSpecies visits the ID and raw species of tenant's records — every
	// record for the default tenant "" — in ascending ID order until fn
	// returns false. It reads those two cells of each record and decodes
	// nothing else: the projection name detection needs.
	ScanSpecies(tenant string, fn func(id, species string) bool) error
	DistinctSpecies() (map[string]int, error)
	Stats() (Stats, error)
	Query(pred Predicate, opts QueryOptions) ([]*Record, error)
}

var _ Records = (*Store)(nil)
