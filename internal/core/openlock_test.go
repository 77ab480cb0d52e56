package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/curation"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/workflow"
)

// TestOpenLocksDirectory: a system holds its directory — every database in
// it — until Close. A second Open of the directory fails with
// storage.ErrLocked in both layouts; a sharded Open that meets one locked
// database (the meta database, or a shard's) fails too and leaves the others
// unlocked; after Close the directory opens again.
func TestOpenLocksDirectory(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Sync: storage.SyncNever, Shards: shards}
			sys, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if second, err := Open(dir, opts); !errors.Is(err, storage.ErrLocked) {
				if second != nil {
					second.Close()
				}
				t.Fatalf("second Open = %v, want storage.ErrLocked", err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			if shards > 1 {
				// An Open that fails on one held database releases every one
				// it had already locked, or the next Open would fail on those.
				for _, held := range []string{"meta", filepath.Join("shards", "shard-0002", "db")} {
					db, err := storage.Open(filepath.Join(dir, held), storage.Options{Sync: storage.SyncNever})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := Open(dir, opts); !errors.Is(err, storage.ErrLocked) {
						t.Fatalf("Open with %s held = %v, want storage.ErrLocked", held, err)
					}
					db.Close()
				}
			}
			sys, err = Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen after Close: %v", err)
			}
			sys.Close()
		})
	}
}

// TestSweepResumesCrashedAdmissionAtOpen: an admitted run that crashed under
// a named pool member is, after Close and Open, an orphan — the directory
// lock proves its executor dead — so the startup sweep under another name
// resumes it at once instead of skipping it, byte-identically, reports its
// outcome and takes it off the admission queue; a drain of the stale
// admission settles it.
func TestSweepResumesCrashedAdmissionAtOpen(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(dir, Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { sys.Close() }()
	taxa := smallCollection(t, sys)
	ctx := context.Background()
	opts := RunOptions{SkipLedger: true, Untraced: true}
	baseline, err := sys.RunDetection(ctx, taxa.Checklist, opts)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := sys.Provenance.Graph(baseline.RunID)
	if err != nil {
		t.Fatal(err)
	}
	crashing := opts
	crashing.CrashAfterDeltas = int(baseline.ProvenanceWriter.Enqueued) / 2
	adm, err := sys.AdmitDetection(crashing)
	if err != nil {
		t.Fatal(err)
	}
	be := sys.SchedulerBackend(taxa.Checklist, opts, nil)
	if err := be.ExecuteAdmission(ctx, adm, "web-1"); !errors.Is(err, cluster.ErrRunInterrupted) {
		t.Fatalf("crashed execution returned %v, want ErrRunInterrupted", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	if sys, err = Open(dir, Options{Sync: storage.SyncNever}); err != nil {
		t.Fatal(err)
	}
	report := sweepAndCheck(t, sys, taxa, adm.RunID, canonicalGraph(bg, baseline.RunID))
	if report.Found != 1 {
		t.Fatalf("sweep found %d unfinished runs, want 1", report.Found)
	}
	if out, err := sys.StoredOutcome(adm.RunID); err != nil || out.Outdated != baseline.Outdated || out.DistinctNames != baseline.DistinctNames {
		t.Fatalf("swept run's stored outcome %+v (%v), want the baseline's counts", out, err)
	}
	if n := sys.Admissions.Depth(); n != 0 {
		t.Fatalf("queue depth after the sweep = %d, want 0", n)
	}
	be = sys.SchedulerBackend(taxa.Checklist, opts, nil)
	if err := be.ExecuteAdmission(ctx, adm, "web-2"); !errors.Is(err, cluster.ErrAdmissionSettled) {
		t.Fatalf("draining the swept admission = %v, want ErrAdmissionSettled", err)
	}
}

// sweepAndCheck sweeps sys under a fresh owner name and checks that runID was
// resumed — not skipped, not abandoned — to the canonical graph want.
func sweepAndCheck(t *testing.T, sys *System, taxa *taxonomy.Generated, runID, want string) *SweepReport {
	t.Helper()
	report, err := sys.SweepUnfinishedRuns(context.Background(), taxa.Checklist, RunOptions{Orchestrator: "web-2", SkipLedger: true, Untraced: true})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !slices.Contains(report.Resumed, runID) || len(report.Skipped) != 0 || len(report.Abandoned) != 0 {
		t.Fatalf("sweep report %+v, want %s resumed and nothing skipped or abandoned", report, runID)
	}
	g, err := sys.Provenance.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, runID) != want {
		t.Error("swept run's canonical graph diverges from the uninterrupted baseline")
	}
	return report
}

// parentEraDirectory builds in dir what a process of the lease-and-fence era
// left when it died mid-run: an admitted run crashed halfway, whose admission
// row carries lease_ttl_ms, plus the rows that era's ownership plane wrote
// beside it — a live lease on the run held by web-4242, web-4242's membership
// row, and the fences behind both and behind the run's history — all written
// through plain storage ops. It returns the run ID and the canonical graph of
// an uninterrupted run of the same collection.
func parentEraDirectory(t *testing.T, dir string) (*taxonomy.Generated, string, string) {
	t.Helper()
	sys, err := Open(dir, Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	taxa := smallCollection(t, sys)
	ctx := context.Background()
	baseline, err := sys.RunDetection(ctx, taxa.Checklist, RunOptions{SkipLedger: true, Untraced: true})
	if err != nil {
		t.Fatal(err)
	}
	bg, err := sys.Provenance.Graph(baseline.RunID)
	if err != nil {
		t.Fatal(err)
	}
	adm := workflow.Admission{
		RunID: workflow.MintRunID(""),
		Options: fmt.Sprintf(`{"skip_ledger":true,"untraced":true,"crash_after_deltas":%d,"lease_ttl_ms":2000}`,
			baseline.ProvenanceWriter.Enqueued/2),
	}
	if err := sys.Admissions.Add(adm); err != nil {
		t.Fatal(err)
	}
	var crash *CrashError
	if _, err := sys.RunAdmitted(ctx, taxa.Checklist, adm, "web-4242"); !errors.As(err, &crash) {
		t.Fatalf("crash run returned %v, want CrashError", err)
	}

	leases := storage.MustSchema("cluster_leases",
		storage.Column{Name: "resource", Kind: storage.KindString},
		storage.Column{Name: "holder", Kind: storage.KindString},
		storage.Column{Name: "token", Kind: storage.KindInt},
		storage.Column{Name: "expires", Kind: storage.KindInt},
	)
	fences := storage.MustSchema("sys_fences",
		storage.Column{Name: "name", Kind: storage.KindString},
		storage.Column{Name: "token", Kind: storage.KindInt},
	)
	live := time.Now().Add(time.Hour).UnixNano()
	if err := sys.DB.Apply(
		storage.CreateTableOp(fences),
		storage.InsertOp("sys_fences", storage.Row{storage.S("lease/orchestrator/web-4242"), storage.I(1)}),
		storage.InsertOp("sys_fences", storage.Row{storage.S("lease/" + adm.RunID), storage.I(1)}),
		storage.InsertOp("sys_fences", storage.Row{storage.S("run/" + adm.RunID), storage.I(1)}),
		storage.CreateTableOp(leases),
		storage.InsertOp("cluster_leases", storage.Row{storage.S("orchestrator/web-4242"), storage.S("web-4242"), storage.I(1), storage.I(live)}),
		storage.InsertOp("cluster_leases", storage.Row{storage.S(adm.RunID), storage.S("web-4242"), storage.I(1), storage.I(live)}),
	); err != nil {
		t.Fatal(err)
	}
	return taxa, adm.RunID, canonicalGraph(bg, baseline.RunID)
}

// TestOpensParentEraOwnershipTables: a directory that holds the lease and
// fence rows of the deleted ownership plane — including a live lease on its
// unfinished admitted run — opens, its sweep resumes that run byte-identically
// rather than skipping it, and the inert tables keep their rows.
func TestOpensParentEraOwnershipTables(t *testing.T) {
	dir := t.TempDir()
	taxa, runID, want := parentEraDirectory(t, dir)

	sys, err := Open(dir, Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatalf("open a parent-era directory: %v", err)
	}
	defer sys.Close()
	sweepAndCheck(t, sys, taxa, runID, want)
	for table, rows := range map[string]int{"cluster_leases": 2, "sys_fences": 3} {
		if tab := sys.DB.Table(table); tab == nil || tab.Len() != rows {
			t.Errorf("inert table %s lost its rows", table)
		}
	}
}

// killChildEnv switches a kill test into its child half: the test binary,
// re-run with the parent's directory in this variable.
const killChildEnv = "CORE_KILL_TEST_DIR"

// blockingResolver announces the first name it is asked to resolve on stdout
// and then never answers: the child's run is claimed and executing, and
// stays so until the process is killed.
type blockingResolver struct{ once sync.Once }

func (r *blockingResolver) Resolve(context.Context, string) (taxonomy.Resolution, error) {
	r.once.Do(func() { fmt.Println("executing") })
	time.Sleep(time.Hour)
	return taxonomy.Resolution{}, errors.New("unreachable")
}

// TestPickedUpAdmissionSurvivesKill: an admission made under SyncOnClose
// survives the death of the process that picked it up and was executing it.
// A child process admits a run and executes it until it blocks on the
// authority; SIGKILL ends the child there. The reopened
// directory still holds the admission, and draining it completes the run
// byte-identically to an uninterrupted one.
func TestPickedUpAdmissionSurvivesKill(t *testing.T) {
	ctx := context.Background()
	opts := RunOptions{SkipLedger: true, Untraced: true}
	if dir := os.Getenv(killChildEnv); dir != "" {
		sys, err := Open(dir, Options{Sync: storage.SyncOnClose})
		if err != nil {
			t.Fatal(err)
		}
		adm, err := sys.AdmitDetection(opts)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Println("admitted", adm.RunID)
		err = sys.SchedulerBackend(&blockingResolver{}, opts, nil).ExecuteAdmission(ctx, adm, "web-1")
		t.Fatalf("execution returned %v; the resolver should have blocked it", err)
	}

	dir := t.TempDir()
	sys, err := Open(dir, Options{Sync: storage.SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	taxa := smallCollection(t, sys)
	baseline, err := sys.RunDetection(ctx, taxa.Checklist, opts)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := sys.Provenance.Graph(baseline.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestPickedUpAdmissionSurvivesKill$", "-test.count=1")
	cmd.Env = append(os.Environ(), killChildEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(time.Minute, func() { cmd.Process.Kill() })
	defer watchdog.Stop()
	var runID, transcript string
	executing := false
	for lines := bufio.NewScanner(stdout); lines.Scan(); {
		transcript += lines.Text() + "\n"
		if id, ok := strings.CutPrefix(lines.Text(), "admitted "); ok {
			runID = id
		}
		if lines.Text() == "executing" {
			executing = true
			break
		}
	}
	cmd.Process.Kill() // SIGKILL: no deferred Close, no Sync
	cmd.Wait()
	if !executing || runID == "" {
		t.Fatalf("child never reached execution:\n%s", transcript)
	}

	if sys, err = Open(dir, Options{Sync: storage.SyncOnClose}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	adm, ok := sys.Admissions.Get(runID)
	if !ok {
		t.Fatalf("admission %s was lost with the killed process", runID)
	}
	if err := sys.SchedulerBackend(taxa.Checklist, opts, nil).ExecuteAdmission(ctx, adm, "web-2"); err != nil {
		t.Fatalf("draining the surviving admission: %v", err)
	}
	g, err := sys.Provenance.Graph(runID)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalGraph(g, runID) != canonicalGraph(bg, baseline.RunID) {
		t.Error("the drained run's canonical graph diverges from the uninterrupted baseline")
	}
	if n := sys.Admissions.Depth(); n != 0 {
		t.Fatalf("queue depth after the drain = %d, want 0", n)
	}
}

// killChildAt re-runs the test binary as test's child half on dir, reads the
// child's stdout until a line starting with prefix, SIGKILLs the child there
// and returns the rest of that line. It fails t when the child exits first.
func killChildAt(t *testing.T, test, dir, prefix string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), killChildEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(time.Minute, func() { cmd.Process.Kill() })
	defer watchdog.Stop()
	var transcript strings.Builder
	for lines := bufio.NewScanner(stdout); lines.Scan(); {
		transcript.WriteString(lines.Text() + "\n")
		if rest, ok := strings.CutPrefix(lines.Text(), prefix); ok {
			cmd.Process.Kill() // SIGKILL: no deferred Close, no Sync
			cmd.Wait()
			return rest
		}
	}
	cmd.Wait()
	t.Fatalf("child exited before printing %q:\n%s", prefix, transcript.String())
	return ""
}

// TestAdmissionSurvivesKill: under SyncOnClose an admission is in the WAL
// file once AdmitDetection returns, before any pool member picks it up. A
// child process admits a run and is SIGKILLed right after; the reopened
// directory lists the admission as pending.
func TestAdmissionSurvivesKill(t *testing.T) {
	if dir := os.Getenv(killChildEnv); dir != "" {
		sys, err := Open(dir, Options{Sync: storage.SyncOnClose})
		if err != nil {
			t.Fatal(err)
		}
		adm, err := sys.AdmitDetection(RunOptions{SkipLedger: true})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Println("admitted", adm.RunID)
		time.Sleep(time.Hour)
	}

	dir := t.TempDir()
	sys, err := Open(dir, Options{Sync: storage.SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	runID := killChildAt(t, "TestAdmissionSurvivesKill", dir, "admitted ")

	if sys, err = Open(dir, Options{Sync: storage.SyncOnClose}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pending, err := sys.Admissions.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].RunID != runID {
		t.Fatalf("pending after the kill = %+v, want the admission %s", pending, runID)
	}
}

// TestCuratorValidationSurvivesKill: under SyncOnClose a curator's verdict
// and its history entry — Ledger.Resolve and LogChange, what /review/act
// does — are in the WAL file once they return. A child process approves a
// pending update and is SIGKILLed right after; the reopened ledger reads the
// update approved and the record's history holds the change.
func TestCuratorValidationSurvivesKill(t *testing.T) {
	const recordID = "FNJV-00042"
	if dir := os.Getenv(killChildEnv); dir != "" {
		sys, err := Open(dir, Options{Sync: storage.SyncOnClose})
		if err != nil {
			t.Fatal(err)
		}
		pending, err := sys.Ledger.Pending()
		if err != nil || len(pending) != 1 {
			t.Fatalf("pending updates = %v, %v; want one", pending, err)
		}
		u := pending[0]
		if err := sys.Ledger.Resolve(u.ID, curation.ReviewApproved, "web-curator", time.Now()); err != nil {
			t.Fatal(err)
		}
		if err := sys.Ledger.LogChange(curation.HistoryEntry{
			RecordID: u.RecordID, Field: "species", OldValue: u.OriginalName, NewValue: u.UpdatedName,
			Reason: "name-update:" + u.Status, Actor: "web-curator",
		}); err != nil {
			t.Fatal(err)
		}
		fmt.Println("validated", u.ID)
		time.Sleep(time.Hour)
	}

	dir := t.TempDir()
	sys, err := Open(dir, Options{Sync: storage.SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Ledger.AddUpdates([]*curation.NameUpdate{{
		RecordID: recordID, OriginalName: "Hyla faber", UpdatedName: "Boana faber",
		Status: "synonym", Reference: "Faivovich et al. 2005", DetectedAt: time.Now(),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	id := killChildAt(t, "TestCuratorValidationSurvivesKill", dir, "validated ")

	if sys, err = Open(dir, Options{Sync: storage.SyncOnClose}); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	u, err := sys.Ledger.Update(id)
	if err != nil {
		t.Fatal(err)
	}
	if u.Review != curation.ReviewApproved || u.ReviewedBy != "web-curator" {
		t.Fatalf("update %s after the kill: review %q by %q, want approved by web-curator", id, u.Review, u.ReviewedBy)
	}
	history, err := sys.Ledger.History(recordID)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 1 || history[0].NewValue != "Boana faber" {
		t.Fatalf("history of %s after the kill = %+v, want the approved change", recordID, history)
	}
}
