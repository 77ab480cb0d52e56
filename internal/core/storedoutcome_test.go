package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"testing"

	"repro/internal/storage"
)

// TestStoredOutcomeMatchesLive: a run's outcome read back from its stored
// record is the one the live run returned — the §IV.C assessment byte for
// byte as JSON, the summary counts and the renames equal — for a fresh run
// and a crash-resumed run, read in the process that ran them and again after
// Close and reopen, on one store and on four shards.
func TestStoredOutcomeMatchesLive(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			sys, err := Open(dir, Options{Sync: storage.SyncNever, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			taxa := smallCollection(t, sys)
			ctx, opts := context.Background(), RunOptions{SkipLedger: true}
			fresh, err := sys.RunDetection(ctx, taxa.Checklist, opts)
			if err != nil {
				t.Fatal(err)
			}
			kill := opts
			kill.CrashAfterDeltas = int(fresh.ProvenanceWriter.Enqueued) / 2
			_, err = sys.RunDetection(ctx, taxa.Checklist, kill)
			var crash *CrashError
			if !errors.As(err, &crash) {
				t.Fatalf("killed run returned %v, want a CrashError", err)
			}
			if _, err := sys.StoredOutcome(crash.RunID); !errors.Is(err, ErrNoOutcome) {
				t.Fatalf("stored outcome of an unfinished run: %v, want ErrNoOutcome", err)
			}
			resumed, err := sys.ResumeDetection(ctx, taxa.Checklist, crash.RunID, opts)
			if err != nil {
				t.Fatal(err)
			}

			check := func(when string) {
				t.Helper()
				for _, want := range []*DetectionOutcome{fresh, resumed} {
					got, err := sys.StoredOutcome(want.RunID)
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					gotA, _ := json.Marshal(got.Assessment)
					wantA, _ := json.Marshal(want.Assessment)
					if string(gotA) != string(wantA) {
						t.Fatalf("%s: run %s's stored assessment\n%s\nwant the live one\n%s", when, want.RunID, gotA, wantA)
					}
					if got.RunID != want.RunID || got.DistinctNames != want.DistinctNames || got.Outdated != want.Outdated ||
						got.Unknown != want.Unknown || got.Unavailable != want.Unavailable || got.Degraded != want.Degraded ||
						!maps.Equal(got.Renames, want.Renames) {
						t.Fatalf("%s: stored outcome %+v, want the live %+v", when, got, want)
					}
				}
				runs, err := sys.CompletedDetections("")
				if err != nil || len(runs) != 2 || runs[0].RunID != fresh.RunID || runs[1].RunID != resumed.RunID {
					t.Fatalf("%s: completed detections %+v (%v), want %s then %s", when, runs, err, fresh.RunID, resumed.RunID)
				}
				if runs, err := sys.CompletedDetections("acme"); err != nil || len(runs) != 0 {
					t.Fatalf("%s: tenant acme lists %+v (%v), want none", when, runs, err)
				}
				if _, err := sys.StoredOutcome("run-999999"); !errors.Is(err, ErrNoOutcome) {
					t.Fatalf("%s: stored outcome of an unknown run: %v, want ErrNoOutcome", when, err)
				}
			}
			check("live")
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			if sys, err = Open(dir, Options{Sync: storage.SyncNever, Shards: shards}); err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			check("after reopen")
		})
	}
}
