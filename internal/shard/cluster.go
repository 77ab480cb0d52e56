package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fnjv"
	"repro/internal/provenance"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Options configures Open.
type Options struct {
	// Shards is the shard count on first open; 0 adopts the persisted map.
	Shards int
	// VNodes is the virtual-point count per shard (DefaultVNodes if 0).
	VNodes int
	// Sync is the WAL policy of every shard database.
	Sync storage.SyncPolicy
	// CommitDelay is forwarded to every shard database's WAL (simulated
	// device commit latency; see storage.Options.CommitDelay).
	CommitDelay time.Duration
}

// legDeadline bounds each scatter-gather leg.
const legDeadline = 2 * time.Second

// Cluster is a set of shard instances under one persisted map, plus the
// routers that make them look like one storage/provenance/trace layer. All
// routers are safe for concurrent use.
type Cluster struct {
	dir    string
	m      Map
	ring   *Ring
	shards []*Shard

	records *RecordRouter
	prov    *ProvenanceRouter
	traces  *TraceRouter
}

// Shard is one partition: its own database (records, provenance, traces,
// history), whose stores are swapped atomically on Stop/Rejoin.
type Shard struct {
	id    int
	dir   string
	sync  storage.SyncPolicy
	delay time.Duration

	mu     sync.RWMutex
	down   bool
	db     *storage.DB
	stores backends

	ops  atomic.Int64
	errs atomic.Int64
}

// Open opens (or creates) a sharded cluster rooted at dir. The shard map is
// persisted on first open; later opens must agree with it.
func Open(dir string, opts Options) (*Cluster, error) {
	m, err := loadOrInitMap(dir, opts.Shards, opts.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{dir: dir, m: m, ring: NewRing(m.Shards, m.VNodes)}
	for i := 0; i < m.Shards; i++ {
		sh := &Shard{id: i, dir: filepath.Join(dir, "shards", shardName(i)), sync: opts.Sync, delay: opts.CommitDelay}
		if err := os.MkdirAll(sh.dir, 0o755); err != nil {
			c.Close()
			return nil, err
		}
		if err := sh.open(); err != nil {
			c.Close()
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	c.records = &RecordRouter{router{c: c}}
	c.prov = &ProvenanceRouter{router{c: c}}
	c.traces = &TraceRouter{router{c: c}}
	return c, nil
}

// open (re)opens the shard's database-backed components.
func (s *Shard) open() error {
	db, err := storage.Open(filepath.Join(s.dir, "db"), storage.Options{Sync: s.sync, CommitDelay: s.delay})
	if err != nil {
		return fmt.Errorf("shard: open %s: %w", shardName(s.id), err)
	}
	recs, err := fnjv.NewStore(db)
	var prov *provenance.Repository
	if err == nil {
		prov, err = provenance.NewRepository(db)
	}
	var spans *telemetry.SpanStore
	if err == nil {
		spans, err = telemetry.NewSpanStore(db)
	}
	if err != nil {
		db.Close()
		return fmt.Errorf("shard: open %s: %w", shardName(s.id), err)
	}
	s.mu.Lock()
	s.db, s.stores = db, backends{shard: s.id, recs: recs, prov: prov, spans: spans}
	s.down = false
	s.mu.Unlock()
	return nil
}

// Close closes every shard database. The cluster is unusable afterwards.
func (c *Cluster) Close() error {
	var errs []error
	for _, sh := range c.shards {
		sh.mu.Lock()
		db := sh.db
		sh.db = nil
		sh.down = true
		sh.mu.Unlock()
		if db != nil {
			if err := db.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// OwnerIndex returns the index of the shard owning the given ID.
func (c *Cluster) OwnerIndex(id string) int { return c.ring.Owner(RouteKey(id)) }

// Records returns the sharded collection store.
func (c *Cluster) Records() *RecordRouter { return c.records }

// Provenance returns the sharded provenance repository.
func (c *Cluster) Provenance() *ProvenanceRouter { return c.prov }

// Traces returns the sharded span store.
func (c *Cluster) Traces() *TraceRouter { return c.traces }

// StopShard marks shard i down and closes its database, simulating a shard
// loss: in-flight operations error out, later routed operations fail fast
// with ErrShardDown, other shards keep serving.
func (c *Cluster) StopShard(i int) error {
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("shard: no shard %d", i)
	}
	sh := c.shards[i]
	sh.mu.Lock()
	if sh.down {
		sh.mu.Unlock()
		return nil
	}
	sh.down = true
	db := sh.db
	sh.db = nil
	sh.mu.Unlock()
	if db != nil {
		return db.Close()
	}
	return nil
}

// RejoinShard reopens a stopped shard's database (replaying its WAL) and
// marks it available again.
func (c *Cluster) RejoinShard(i int) error {
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("shard: no shard %d", i)
	}
	sh := c.shards[i]
	sh.mu.RLock()
	down := sh.down
	sh.mu.RUnlock()
	if !down {
		return nil
	}
	return sh.open()
}

// Down reports whether shard i is currently marked unavailable.
func (c *Cluster) Down(i int) bool {
	sh := c.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.down
}

// Counters renders per-shard routing gauges for the metrics bridge: routed
// operations, routed errors, and availability per shard.
func (c *Cluster) Counters() map[string]float64 {
	out := make(map[string]float64, 3*len(c.shards)+1)
	out["shards"] = float64(len(c.shards))
	for i, sh := range c.shards {
		name := shardName(sh.id)
		out[name+".ops"] = float64(sh.ops.Load())
		out[name+".errors"] = float64(sh.errs.Load())
		down := 0.0
		if c.Down(i) {
			down = 1
		}
		out[name+".down"] = down
	}
	return out
}
