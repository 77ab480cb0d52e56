package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

func leaseStore(t *testing.T) (*Store, *storage.DB) {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := NewStore(db)
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	return s, db
}

func TestLeaseAcquireRenewRelease(t *testing.T) {
	s, _ := leaseStore(t)
	l, err := s.Acquire("run/r1", "orch-a", time.Minute)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if l.Token != 1 || l.Holder != "orch-a" {
		t.Fatalf("lease = %+v, want token 1 holder orch-a", l)
	}
	// A live lease is exclusive — even against its own holder.
	if _, err := s.Acquire("run/r1", "orch-b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("second acquire: err = %v, want ErrLeaseHeld", err)
	}
	if _, err := s.Acquire("run/r1", "orch-a", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("self re-acquire: err = %v, want ErrLeaseHeld", err)
	}
	l2, err := s.Renew(l, 2*time.Minute)
	if err != nil {
		t.Fatalf("renew: %v", err)
	}
	if l2.Token != l.Token {
		t.Fatalf("renew changed token: %d -> %d", l.Token, l2.Token)
	}
	if !l2.Expires.After(l.Expires) {
		t.Fatalf("renew did not extend: %s -> %s", l.Expires, l2.Expires)
	}
	if err := s.Release(l2); err != nil {
		t.Fatalf("release: %v", err)
	}
	// Released leases are immediately re-acquirable, at a bumped token.
	l3, err := s.Acquire("run/r1", "orch-b", time.Minute)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if l3.Token != l.Token+1 {
		t.Fatalf("token after release = %d, want %d", l3.Token, l.Token+1)
	}
}

func TestLeaseStealAfterExpiry(t *testing.T) {
	s, _ := leaseStore(t)
	l, err := s.Acquire("run/r1", "orch-a", time.Minute)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if err := s.Expire("run/r1"); err != nil {
		t.Fatalf("expire: %v", err)
	}
	stolen, err := s.Acquire("run/r1", "orch-b", time.Minute)
	if err != nil {
		t.Fatalf("steal: %v", err)
	}
	if stolen.Token != l.Token+1 {
		t.Fatalf("stolen token = %d, want %d", stolen.Token, l.Token+1)
	}
	// The old holder's heartbeat and release now fail closed.
	if _, err := s.Renew(l, time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale renew: err = %v, want ErrLeaseLost", err)
	}
	if err := s.Release(l); err != nil {
		t.Fatalf("stale release should be a no-op, got %v", err)
	}
	if cur, ok := s.Get("run/r1"); !ok || cur.Holder != "orch-b" || !cur.Live(time.Now()) {
		t.Fatalf("lease after stale release = %+v, want live orch-b", cur)
	}
}

// TestLeaseConcurrentStealers pins the tentpole CAS: many stealers race for
// one expired lease — exactly one wins, every loser sees ErrLeaseHeld, and
// the winning token is exactly prev+1. Two independent Store instances share
// the DB, modeling two standby orchestrator processes.
func TestLeaseConcurrentStealers(t *testing.T) {
	s, db := leaseStore(t)
	if _, err := s.Acquire("run/r1", "orch-dead", time.Minute); err != nil {
		t.Fatalf("seed acquire: %v", err)
	}
	if err := s.Expire("run/r1"); err != nil {
		t.Fatalf("expire: %v", err)
	}
	s2, err := NewStore(db)
	if err != nil {
		t.Fatalf("second store: %v", err)
	}
	stores := []*Store{s, s2}
	const racers = 8
	var wg sync.WaitGroup
	wins := make(chan Lease, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := stores[i%len(stores)].Acquire("run/r1", "orch-standby", time.Minute)
			switch {
			case err == nil:
				wins <- l
			case !errors.Is(err, ErrLeaseHeld):
				t.Errorf("stealer %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var won []Lease
	for l := range wins {
		won = append(won, l)
	}
	if len(won) != 1 {
		t.Fatalf("winners = %d, want exactly 1", len(won))
	}
	if won[0].Token != 2 {
		t.Fatalf("winning token = %d, want 2", won[0].Token)
	}
}

// TestLeaseConcurrentFreshAcquirers is the never-leased twin of the stealers
// race: N acquirers of a resource with no lease row yet — exactly one wins,
// and the winner's row and fence agree, so its first Renew succeeds (a fence
// bumped past the row would read as a stolen lease and kill the holder).
func TestLeaseConcurrentFreshAcquirers(t *testing.T) {
	for round := 0; round < 20; round++ {
		s, db := leaseStore(t)
		s2, err := NewStore(db)
		if err != nil {
			t.Fatalf("second store: %v", err)
		}
		stores := []*Store{s, s2}
		const racers = 8
		var wg sync.WaitGroup
		wins := make(chan Lease, racers)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				l, err := stores[i%len(stores)].Acquire("run/fresh", fmt.Sprintf("orch-%d", i), time.Minute)
				switch {
				case err == nil:
					wins <- l
				case !errors.Is(err, ErrLeaseHeld):
					t.Errorf("acquirer %d: unexpected error %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		close(wins)
		var won []Lease
		for l := range wins {
			won = append(won, l)
		}
		if len(won) != 1 {
			t.Fatalf("round %d: winners = %d, want exactly 1", round, len(won))
		}
		if won[0].Token != 1 {
			t.Fatalf("round %d: winning token = %d, want 1", round, won[0].Token)
		}
		if _, err := s.Renew(won[0], time.Minute); err != nil {
			t.Fatalf("round %d: winner cannot renew: %v", round, err)
		}
	}
}

func TestLeaseSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s, err := NewStore(db)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	l, err := s.Acquire("run/r1", "orch-a", time.Hour)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db, err = storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	s, err = NewStore(db)
	if err != nil {
		t.Fatalf("store after reopen: %v", err)
	}
	cur, ok := s.Get("run/r1")
	if !ok || cur.Holder != l.Holder || cur.Token != l.Token {
		t.Fatalf("lease after reopen = %+v ok=%v, want %+v", cur, ok, l)
	}
	// Token continuity across restart: a steal still bumps, never reuses.
	if err := s.Expire("run/r1"); err != nil {
		t.Fatalf("expire: %v", err)
	}
	stolen, err := s.Acquire("run/r1", "orch-b", time.Hour)
	if err != nil {
		t.Fatalf("steal after reopen: %v", err)
	}
	if stolen.Token != l.Token+1 {
		t.Fatalf("token after reopen steal = %d, want %d", stolen.Token, l.Token+1)
	}
}
