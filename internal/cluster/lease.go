// Package cluster spreads runs across orchestrator processes: fenced run
// leases for orchestrator failover, and the scheduler pool that drains the
// admission queue and rescues the runs of dead peers. A run's tasks execute
// inside the orchestrator that holds its lease.
//
// Ownership is built on storage fences (storage.AdvanceFence /
// storage.ApplyFenced): a lease's token is the durable fence token of
// "lease/<resource>" in the lease database. Acquiring or stealing a lease is
// a strictly-monotonic fence advance — a compare-and-swap the storage layer
// arbitrates under its write lock — so two concurrent stealers can never
// both win, and a holder whose lease was stolen gets ErrStaleFence on its
// next write rather than silently corrupting shared state.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/storage"
)

// ErrLeaseHeld is returned by Acquire when the resource has a live lease
// owned by someone else.
var ErrLeaseHeld = errors.New("cluster: lease held")

// ErrLeaseLost is returned by Renew/Release when the lease was stolen: the
// durable token moved past the caller's. The holder must stop writing.
var ErrLeaseLost = errors.New("cluster: lease lost")

// leaseTable holds one row per leased resource:
// (resource, holder, token, expires-unixnano).
const leaseTable = "cluster_leases"

// Lease is a held (or observed) claim on a resource. Token is the fencing
// token every write under this lease must carry.
type Lease struct {
	Resource string
	Holder   string
	Token    int64
	Expires  time.Time
}

// Live reports whether the lease is unexpired at now.
func (l Lease) Live(now time.Time) bool { return now.Before(l.Expires) }

// Store manages leases in one storage.DB (the meta database in a sharded
// deployment). Multiple Stores — in one process or several — may share the
// same DB; the fence CAS arbitrates between them.
type Store struct {
	db *storage.DB
}

// NewStore opens a lease store over db, creating the lease table if absent.
func NewStore(db *storage.DB) (*Store, error) {
	if db.Table(leaseTable) == nil {
		s, err := storage.NewSchema(leaseTable,
			storage.Column{Name: "resource", Kind: storage.KindString},
			storage.Column{Name: "holder", Kind: storage.KindString},
			storage.Column{Name: "token", Kind: storage.KindInt},
			storage.Column{Name: "expires", Kind: storage.KindInt},
		)
		if err != nil {
			return nil, err
		}
		if err := db.CreateTable(s); err != nil && db.Table(leaseTable) == nil {
			// A concurrent NewStore on the same DB may have created it first;
			// only a failure that left no table behind is real.
			return nil, err
		}
	}
	return &Store{db: db}, nil
}

// fenceName is the storage-fence resource backing the lease on resource.
func fenceName(resource string) string { return "lease/" + resource }

func leaseFromRow(r storage.Row) Lease {
	return Lease{
		Resource: r[0].Str(),
		Holder:   r[1].Str(),
		Token:    r[2].Int(),
		Expires:  time.Unix(0, r[3].Int()),
	}
}

// Get returns the current lease row for resource, if any.
func (s *Store) Get(resource string) (Lease, bool) {
	t := s.db.Table(leaseTable)
	if t == nil {
		return Lease{}, false
	}
	row, err := t.Get(storage.S(resource))
	if err != nil {
		return Lease{}, false
	}
	return leaseFromRow(row), true
}

// List returns every lease row, in resource order.
func (s *Store) List() []Lease {
	t := s.db.Table(leaseTable)
	if t == nil {
		return nil
	}
	var out []Lease
	t.Scan(func(r storage.Row) bool {
		out = append(out, leaseFromRow(r))
		return true
	})
	return out
}

// Acquire claims resource for holder with the given ttl. It succeeds when the
// resource has no lease or only an expired one, bumping the fencing token by
// exactly one; a live lease owned by anyone (including holder itself — a
// holder extends via Renew, not re-Acquire) returns ErrLeaseHeld. Of N
// concurrent acquirers of the same expired or never-leased resource, exactly
// one wins: the token bump is a storage-fence CAS, and the lease row is
// written in the same atomic batch, so row and fence never disagree.
func (s *Store) Acquire(resource, holder string, ttl time.Duration) (Lease, error) {
	now := time.Now()
	// Fence first, row second: a rival that completes its (atomic) bump+row
	// after this read fails our CAS below, and one that completed before it
	// shows up as a live row — there is no window in which both can win.
	token := s.db.FenceToken(fenceName(resource)) + 1
	prev, exists := s.Get(resource)
	if exists && prev.Live(now) {
		return Lease{}, fmt.Errorf("%w: %q held by %q until %s",
			ErrLeaseHeld, resource, prev.Holder, prev.Expires.Format(time.RFC3339Nano))
	}
	l := Lease{Resource: resource, Holder: holder, Token: token, Expires: now.Add(ttl)}
	if err := s.db.AdvanceFence(fenceName(resource), token, leaseOp(l, exists)); err != nil {
		if errors.Is(err, storage.ErrStaleFence) {
			return Lease{}, fmt.Errorf("%w: %q lost the claim race", ErrLeaseHeld, resource)
		}
		return Lease{}, err
	}
	return l, nil
}

// Renew extends a held lease by ttl from now. If the lease was stolen (the
// fence moved past l.Token) it returns ErrLeaseLost and the holder must stop.
func (s *Store) Renew(l Lease, ttl time.Duration) (Lease, error) {
	cur, exists := s.Get(l.Resource)
	if !exists || cur.Token != l.Token || cur.Holder != l.Holder {
		return Lease{}, fmt.Errorf("%w: %q renewed at token %d", ErrLeaseLost, l.Resource, l.Token)
	}
	l.Expires = time.Now().Add(ttl)
	if err := s.putFenced(l); err != nil {
		if errors.Is(err, storage.ErrStaleFence) {
			return Lease{}, fmt.Errorf("%w: %q stolen during renew", ErrLeaseLost, l.Resource)
		}
		return Lease{}, err
	}
	return l, nil
}

// Release marks the lease expired immediately (without deleting the row, so
// token monotonicity survives for the next acquirer). Releasing a lease that
// was already stolen is a no-op: the thief owns it now.
func (s *Store) Release(l Lease) error {
	cur, exists := s.Get(l.Resource)
	if !exists || cur.Token != l.Token || cur.Holder != l.Holder {
		return nil
	}
	l.Expires = time.Now().Add(-time.Nanosecond)
	err := s.putFenced(l)
	if errors.Is(err, storage.ErrStaleFence) {
		return nil
	}
	return err
}

// Expire forces the lease on resource to read as expired, leaving holder and
// token untouched — the chaos/test hook standing in for "the holder stopped
// heartbeating", without waiting a real TTL out.
func (s *Store) Expire(resource string) error {
	cur, exists := s.Get(resource)
	if !exists {
		return fmt.Errorf("cluster: expire of unknown lease %q", resource)
	}
	cur.Expires = time.Now().Add(-time.Nanosecond)
	err := s.putFenced(cur)
	if errors.Is(err, storage.ErrStaleFence) {
		return nil
	}
	return err
}

// putFenced rewrites the existing lease row under its own token, so a row
// write racing a newer steal loses at the storage layer.
func (s *Store) putFenced(l Lease) error {
	return s.db.ApplyFenced(fenceName(l.Resource), l.Token, leaseOp(l, true))
}

// leaseOp is the row write for l: an update of the existing row, or the
// resource's first insert.
func leaseOp(l Lease, update bool) storage.Op {
	row := storage.Row{
		storage.S(l.Resource), storage.S(l.Holder),
		storage.I(l.Token), storage.I(l.Expires.UnixNano()),
	}
	if update {
		return storage.UpdateOp(leaseTable, row)
	}
	return storage.InsertOp(leaseTable, row)
}
