// Package shard partitions the preservation system's hot state — collection
// records, provenance runs/history and persisted traces — across N shard
// instances, each owning its own storage WAL/B-tree, provenance repository
// and span store. Shards hold no AIPs: the replicated archive store is one
// archive.Store outside the cluster. A shard directory an earlier version
// wrote may hold empty vol-* AIP volumes; Open ignores them.
//
// Placement is consistent hashing over the routing key of an ID: a
// tenant-qualified ID ("<tenant>:<rest>") routes by its tenant, giving every
// tenant shard affinity (fault isolation: losing one shard degrades only the
// tenants it hosts); an unqualified legacy ID routes by the full ID, spreading
// a single-tenant workload across all shards. The ring and shard count are
// persisted in shardmap.json so IDs stay routable across restarts.
//
// The routers (ProvenanceRouter, RecordRouter, TraceRouter) implement the
// same interfaces the single-store types implement (provenance.Repo,
// fnjv.Records, telemetry.TraceStore),
// so core, the workflow engine, and the web service run unchanged on top.
// They are thin typed callers of one core in route.go: route sends a
// per-run/per-record operation to the owning shard's live stores (or fails
// it with ErrShardDown) and counts it once; scatter runs one leg per shard
// under a per-leg deadline for cross-shard operations (run listings, lineage
// fan-out, collection scans, stats); merge re-sorts and truncates what
// scatter brings back into the ordering and cursor contracts of the
// unsharded stores. A new store is a field in backends plus a router of
// one-call methods.
package shard

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/fnjv"
)

// ErrShardDown marks an operation that touched a shard currently marked
// unavailable (stopped by chaos, crashed, or still rejoining). Callers see
// it quickly — routed operations never hang on a dead shard.
var ErrShardDown = errors.New("shard: shard unavailable")

// ErrShardTimeout marks a scatter-gather leg that missed its per-shard
// deadline.
var ErrShardTimeout = errors.New("shard: deadline exceeded")

// Sep separates the tenant qualifier from the rest of an ID. ":" is safe in
// URL path segments and cannot appear in legacy run/record IDs. It is the
// collection store's own qualifier, so a tenant's record scan there walks
// exactly the IDs this package routes to the tenant.
const Sep = fnjv.TenantSep

// Split breaks a possibly tenant-qualified ID into its tenant and the
// unqualified rest. IDs without a qualifier belong to the default tenant "".
func Split(id string) (tenant, rest string) {
	if i := strings.Index(id, Sep); i >= 0 {
		return id[:i], id[i+1:]
	}
	return "", id
}

// Qualify prefixes id with the tenant qualifier; the default tenant ""
// leaves the ID untouched (legacy format).
func Qualify(tenant, id string) string {
	if tenant == "" {
		return id
	}
	return tenant + Sep + id
}

// RouteKey is the consistent-hashing key of an ID: the tenant when the ID is
// tenant-qualified (tenant affinity), the full ID otherwise (spread).
func RouteKey(id string) string {
	if tenant, _ := Split(id); tenant != "" {
		return tenant
	}
	return id
}

// ValidTenant reports whether t is an acceptable tenant identifier on the
// public surface: 1-64 characters of lowercase letters, digits and dashes.
// The default tenant is the empty string and is never sent on the wire.
func ValidTenant(t string) bool {
	if len(t) == 0 || len(t) > 64 {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' {
			continue
		}
		return false
	}
	return true
}

// shardName renders the canonical shard identifier used in directories,
// metrics and errors.
func shardName(id int) string { return fmt.Sprintf("shard-%04d", id) }
