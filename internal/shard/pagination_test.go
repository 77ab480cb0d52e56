package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/storage"
)

// TestCrossShardPaginationUnderConcurrentWrites is the property test behind
// the router's cursor contract: a pagination sequence started at any moment
// stays valid while every shard concurrently receives new runs. The walk
// must (a) never deliver the same run twice, (b) deliver runs in strictly
// ascending RunID order, and (c) deliver every run that existed before the
// walk started — concurrent inserts may or may not appear, but can never
// displace pre-existing runs or invalidate a cursor. It holds at every page
// size, including the default one a non-positive limit selects, and once the
// writers stop the sharded cursor sequence is the unsharded repository's.
func TestCrossShardPaginationUnderConcurrentWrites(t *testing.T) {
	c := openCluster(t, t.TempDir(), 4)
	prov := c.Provenance()

	store := func(repo provenance.Repo, id string) error {
		g := opm.NewGraph()
		if err := g.AddNode(opm.Node{ID: "p", Kind: opm.KindProcess, Label: "proc"}); err != nil {
			return err
		}
		return repo.Store(provenance.RunInfo{
			RunID: id, WorkflowID: "wf", WorkflowName: "wf",
			StartedAt: time.Unix(1700000000, 0), FinishedAt: time.Unix(1700000001, 0),
			Status: provenance.RunCompleted,
		}, g)
	}

	// Seed a known baseline across every shard, large enough that the union
	// of per-shard default pages overflows one default page.
	baseline := map[string]bool{}
	for i := 0; i < 4*60; i++ {
		id := fmt.Sprintf("seed-%06d", i)
		if err := store(prov, id); err != nil {
			t.Fatal(err)
		}
		baseline[id] = true
	}

	// 7 is a small explicit page; 0 selects the default page size.
	for _, limit := range []int{7, 0} {
		// Writers keep inserting fresh runs (random IDs, so they land before,
		// between and after the reader's cursor position) during the walk.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 200; i++ {
					select {
					case <-stop:
						return
					default:
					}
					id := fmt.Sprintf("live-%06d-l%d-w%d-%d", rng.Intn(1000000), limit, w, i)
					if err := store(prov, id); err != nil {
						t.Errorf("concurrent store: %v", err)
						return
					}
				}
			}(w)
		}

		// The reader walks the full listing, re-minting the cursor each step
		// exactly as an API client would.
		seen := map[string]bool{}
		last := ""
		after := ""
		for pages := 0; ; pages++ {
			if pages > 10000 {
				t.Fatal("pagination did not terminate")
			}
			runs, next, err := prov.RunsPage(after, limit)
			if err != nil {
				t.Fatal(err)
			}
			for _, info := range runs {
				if seen[info.RunID] {
					t.Fatalf("limit %d: run %s delivered twice", limit, info.RunID)
				}
				seen[info.RunID] = true
				if last != "" && info.RunID <= last {
					t.Fatalf("limit %d: page out of order: %s after %s", limit, info.RunID, last)
				}
				last = info.RunID
			}
			if next == "" {
				break
			}
			after = next
		}
		close(stop)
		wg.Wait()

		for id := range baseline {
			if !seen[id] {
				t.Fatalf("limit %d: pre-existing run %s skipped by the walk", limit, id)
			}
		}
	}

	// Quiescent: mirror the final run set into one unsharded repository; at
	// every page size both must produce the same pages and the same cursors.
	db, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	single, err := provenance.NewRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	all, err := prov.AllRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range all {
		if err := store(single, info.RunID); err != nil {
			t.Fatal(err)
		}
	}
	for _, limit := range []int{0, 1, 7, 11, len(all), len(all) + 1} {
		count := 0
		after := ""
		for {
			got, gotNext, err := prov.RunsPage(after, limit)
			if err != nil {
				t.Fatal(err)
			}
			want, wantNext, err := single.RunsPage(after, limit)
			if err != nil {
				t.Fatal(err)
			}
			if gotNext != wantNext || len(got) != len(want) {
				t.Fatalf("limit %d after %q: sharded page of %d, next %q; unsharded page of %d, next %q",
					limit, after, len(got), gotNext, len(want), wantNext)
			}
			for i := range got {
				if got[i].RunID != want[i].RunID {
					t.Fatalf("limit %d after %q: entry %d is %s sharded, %s unsharded", limit, after, i, got[i].RunID, want[i].RunID)
				}
			}
			count += len(got)
			if gotNext == "" {
				break
			}
			after = gotNext
		}
		if count != len(all) {
			t.Fatalf("limit %d: quiescent walk saw %d runs, repository holds %d", limit, count, len(all))
		}
	}
}
