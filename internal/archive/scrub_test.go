package archive

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/storage"
)

func archiveObjects(t *testing.T, s *Store, n int) []Manifest {
	t.Helper()
	out := make([]Manifest, n)
	for i := range out {
		payload := []byte(fmt.Sprintf("object %04d payload — some preserved bytes %04d", i, i))
		m, err := s.Put(payload, Meta{
			MediaType: "text/plain",
			SourceID:  fmt.Sprintf("FNJV-%04d", i),
			Label:     fmt.Sprintf("object %d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

func testRepository(t *testing.T) *provenance.Repository {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	repo, err := provenance.NewRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// TestScrubDetectsAndRepairsInjectedFaults is the subsystem's acceptance
// gate: with 3 replica volumes, corrupt one replica of every object and
// delete another replica of 10% of objects; one scrub pass must detect 100%
// of the damage and repair every object (each retains one healthy replica).
func TestScrubDetectsAndRepairsInjectedFaults(t *testing.T) {
	const n = 40
	s := testStore(t, 3)
	vols := s.Volumes()
	objs := archiveObjects(t, s, n)

	// Fault injection: every object loses one replica to bit rot (rotating
	// volumes), and every 10th object additionally loses a second replica.
	wantCorrupt, wantMissing := 0, 0
	for i, m := range objs {
		if err := CorruptReplica(vols[i%3], m.ID, -1); err != nil {
			t.Fatal(err)
		}
		wantCorrupt++
		if i%10 == 0 {
			if err := DeleteReplica(vols[(i+1)%3], m.ID); err != nil {
				t.Fatal(err)
			}
			wantMissing++
		}
	}

	repo := testRepository(t)
	scr := &Scrubber{Store: s, Auditor: &ProvenanceAuditor{Repo: repo}}
	rep, err := scr.ScrubOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if rep.Objects != n || rep.ReplicasChecked != 3*n {
		t.Fatalf("scanned %d objects / %d replicas, want %d / %d", rep.Objects, rep.ReplicasChecked, n, 3*n)
	}
	if rep.CorruptFound != wantCorrupt || rep.MissingFound != wantMissing {
		t.Fatalf("detected corrupt=%d missing=%d, want %d/%d (100%% detection)",
			rep.CorruptFound, rep.MissingFound, wantCorrupt, wantMissing)
	}
	if rep.Repaired != n || rep.Unrecoverable != 0 {
		t.Fatalf("repaired=%d unrecoverable=%d, want %d/0", rep.Repaired, rep.Unrecoverable, n)
	}
	if len(rep.Damaged) != n {
		t.Fatalf("damaged findings = %d, want %d", len(rep.Damaged), n)
	}
	for _, f := range rep.Damaged {
		if f.RepairErr != "" {
			t.Fatalf("repair of %s failed: %s", f.Status.ID, f.RepairErr)
		}
	}

	// Every object is fully replicated and healthy again.
	for _, m := range objs {
		if st := s.Stat(m.ID); st.Healthy() != 3 {
			t.Fatalf("object %s not fully repaired: %+v", m.ID, st)
		}
	}
	// A second pass over the repaired store finds nothing.
	rep2, err := scr.ScrubOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("second pass still found damage: %+v", rep2)
	}

	// The repair trail is a lineage query: each repaired AIP has an audit
	// run recorded as having used it.
	runs, err := repo.Runs(AuditWorkflowID)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("audit runs = %d, want 1 (clean pass must not record)", len(runs))
	}
	for _, m := range objs[:5] {
		using, err := repo.RunsUsingArtifact(m.ArtifactID())
		if err != nil {
			t.Fatal(err)
		}
		if len(using) != 1 || using[0] != runs[0].RunID {
			t.Fatalf("RunsUsingArtifact(%s) = %v, want [%s]", m.ArtifactID(), using, runs[0].RunID)
		}
	}
}

func TestScrubQuarantinesUnrecoverableObjects(t *testing.T) {
	s := testStore(t, 3)
	vols := s.Volumes()
	objs := archiveObjects(t, s, 6)

	// Objects 0 and 1 lose all three replicas (corrupt / corrupt+missing);
	// the rest lose one.
	for _, m := range objs[:2] {
		if err := CorruptReplica(vols[0], m.ID, -1); err != nil {
			t.Fatal(err)
		}
		if err := truncateReplica(vols[1], m.ID, 8); err != nil {
			t.Fatal(err)
		}
		if err := CorruptReplica(vols[2], m.ID, 20); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range objs[2:] {
		if err := DeleteReplica(vols[1], m.ID); err != nil {
			t.Fatal(err)
		}
	}

	repo := testRepository(t)
	scr := &Scrubber{Store: s, Auditor: &ProvenanceAuditor{Repo: repo}}
	rep, err := scr.ScrubOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecoverable != 2 || rep.Repaired != 4 {
		t.Fatalf("unrecoverable=%d repaired=%d, want 2/4", rep.Unrecoverable, rep.Repaired)
	}
	q, err := s.ListQuarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 {
		t.Fatalf("quarantined = %v, want both unrecoverable objects", q)
	}
	// Quarantined objects no longer appear as active.
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("active objects = %d, want 4", len(ids))
	}

	// The quarantine decision is in the provenance trail.
	runs, err := repo.Runs(AuditWorkflowID)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("audit runs = %d, want 1", len(runs))
	}
	g, err := repo.Graph(runs[0].RunID)
	if err != nil {
		t.Fatal(err)
	}
	quarantines := 0
	for _, n := range g.Nodes() {
		if n.Label == "Quarantine" {
			quarantines++
		}
	}
	if quarantines != 2 {
		t.Fatalf("quarantine processes in audit graph = %d, want 2", quarantines)
	}
}

func TestScrubberCountersAccumulate(t *testing.T) {
	s := testStore(t, 2)
	objs := archiveObjects(t, s, 3)
	scr := &Scrubber{Store: s}
	if _, err := scr.ScrubOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := CorruptReplica(s.Volumes()[0], objs[1].ID, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := scr.ScrubOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := scr.Counters()
	if c["archive.scrub.passes"] != 2 || c["archive.scrub.objects"] != 6 ||
		c["archive.scrub.corrupt_found"] != 1 || c["archive.scrub.repaired"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

// TestScrubRateLimit bounds the pass to the configured objects/second.
func TestScrubRateLimit(t *testing.T) {
	s := testStore(t, 1)
	archiveObjects(t, s, 5)
	scr := &Scrubber{Store: s, RatePerSec: 100} // 10ms/object
	start := time.Now()
	if _, err := scr.ScrubOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 5 objects at 100/s: the 2nd..5th waits make ≥ 40ms; allow slack.
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("rate-limited pass finished in %v, too fast", el)
	}
	// Cancellation interrupts a rate-limited pass promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	scr2 := &Scrubber{Store: s, RatePerSec: 2}
	if _, err := scr2.ScrubOnce(ctx); err != context.DeadlineExceeded {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestConcurrentPutAndScrub races foreground archiving against background
// scrubbing — the lock discipline this must survive is what `make race`
// checks.
func TestConcurrentPutAndScrub(t *testing.T) {
	s := testStore(t, 2)
	scr := &Scrubber{Store: s}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				payload := []byte(fmt.Sprintf("writer %d object %d", w, i))
				if _, err := s.Put(payload, Meta{MediaType: "text/plain"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := scr.ScrubOnce(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	rep, err := scr.ScrubOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Objects != 80 {
		t.Fatalf("final pass: %+v", rep)
	}
}
