package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestLeaseConcurrentFreshAcquirers: of N concurrent claimers of one run ID in
// the Owners set (the Leases field of a scheduler and of core.System) exactly
// one wins and the losers get ErrRunOwned.
func TestLeaseConcurrentFreshAcquirers(t *testing.T) {
	var owners Owners
	const claimers = 16
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		winner string
		losers int
	)
	for i := 0; i < claimers; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			err := owners.Claim("run-1", name)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if winner != "" {
					t.Errorf("two winners: %s and %s", winner, name)
				}
				winner = name
			case errors.Is(err, ErrRunOwned):
				losers++
			default:
				t.Errorf("claim by %s: %v", name, err)
			}
		}(fmt.Sprintf("orch-%d", i))
	}
	wg.Wait()
	if winner == "" || losers != claimers-1 {
		t.Fatalf("winner %q, %d losers; want one winner and %d losers", winner, losers, claimers-1)
	}
	if !owners.Held("run-1") {
		t.Fatal("claimed run not held")
	}
}

// TestOwnersClaimRelease is the life of one claim: a claim wins, a second
// claim of the held ID loses with ErrRunOwned naming the holder, other IDs are
// independent, and once released the ID is free to claim again.
func TestOwnersClaimRelease(t *testing.T) {
	var owners Owners
	if owners.Held("run-1") {
		t.Fatal("empty set holds run-1")
	}
	if err := owners.Claim("run-1", "orch-a"); err != nil {
		t.Fatalf("first claim: %v", err)
	}
	if !owners.Held("run-1") || owners.Held("run-2") {
		t.Fatal("Held disagrees with the claims")
	}
	err := owners.Claim("run-1", "orch-b")
	if !errors.Is(err, ErrRunOwned) {
		t.Fatalf("claim of a held run = %v, want ErrRunOwned", err)
	}
	if !strings.Contains(err.Error(), `"orch-a"`) {
		t.Fatalf("losing claim %q does not name the holder", err)
	}
	if err := owners.Claim("run-2", "orch-b"); err != nil {
		t.Fatalf("claim of another run: %v", err)
	}
	owners.Release("run-1")
	if owners.Held("run-1") || !owners.Held("run-2") {
		t.Fatal("release touched the wrong run")
	}
	if err := owners.Claim("run-1", "orch-b"); err != nil {
		t.Fatalf("claim after release: %v", err)
	}
	owners.Release("run-never-claimed")
}
