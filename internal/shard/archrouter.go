package shard

import (
	"strings"
	"time"

	"repro/internal/archive"
)

// ArchiveRouter implements archive.Holdings across the cluster: every AIP
// routes by its content address (computed before routing, exactly as the
// store computes it), listings merge across shards, and each shard's
// scrubber audits only its own volumes.
type ArchiveRouter struct{ router }

var _ archive.Holdings = (*ArchiveRouter)(nil)

// Put implements archive.Holdings: the content address decides the owning
// shard, so re-archiving identical bytes stays idempotent on one shard.
func (a *ArchiveRouter) Put(payload []byte, meta archive.Meta) (m archive.Manifest, err error) {
	id := archive.NewManifest(payload, meta, time.Time{}).ID
	err = a.route(id, func(b backends) error {
		m, err = b.arch.Put(payload, meta)
		return err
	})
	return m, err
}

// Get implements archive.Holdings.
func (a *ArchiveRouter) Get(id string) (m archive.Manifest, payload []byte, err error) {
	err = a.route(id, func(b backends) error {
		m, payload, err = b.arch.Get(id)
		return err
	})
	return m, payload, err
}

// Stat implements archive.Holdings. A down shard reports every replica
// missing — the caller sees degraded status, not a hang.
func (a *ArchiveRouter) Stat(id string) archive.ObjectStatus {
	status := archive.ObjectStatus{ID: id}
	_ = a.route(id, func(b backends) error { // a down shard reads as no replica found
		status = b.arch.Stat(id)
		return nil
	})
	return status
}

// list scatters a holdings listing and merges it sorted.
func (a *ArchiveRouter) list(op string, list func(*archive.Store) ([]string, error)) ([]string, error) {
	lists, err := scatter(a.router, op, func(b backends) ([]string, error) { return list(b.arch) })
	if err != nil {
		return nil, err
	}
	ids, _ := merge(lists, strings.Compare, 0, false)
	return ids, nil
}

// List implements archive.Holdings.
func (a *ArchiveRouter) List() ([]string, error) {
	return a.list("archive.List", (*archive.Store).List)
}

// ListQuarantined implements archive.Holdings.
func (a *ArchiveRouter) ListQuarantined() ([]string, error) {
	return a.list("archive.ListQuarantined", (*archive.Store).ListQuarantined)
}

// Scrubbers returns the per-shard scrubbers, in shard order — audits run
// shard-by-shard, each scoped to its own volumes.
func (a *ArchiveRouter) Scrubbers() []*archive.Scrubber {
	return a.c.Scrubbers()
}

// Volumes implements archive.Holdings: every shard's replica volumes, in
// shard order.
func (a *ArchiveRouter) Volumes() []string {
	var out []string
	for _, sh := range a.c.shards {
		out = append(out, sh.arch.Volumes()...)
	}
	return out
}
