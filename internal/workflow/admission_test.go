package workflow

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

func admissionDB(t testing.TB) *storage.DB {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestAdmissionQueueFIFO(t *testing.T) {
	db := admissionDB(t)
	q, err := NewAdmissionQueue(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := q.Add(Admission{RunID: fmt.Sprintf("run-%06d", i), Tenant: "acme"}); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if q.Depth() != 5 {
		t.Fatalf("depth %d, want 5", q.Depth())
	}
	pending, err := q.Pending()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range pending {
		if want := fmt.Sprintf("run-%06d", i); a.RunID != want {
			t.Fatalf("pending[%d] = %s, want %s (FIFO order)", i, a.RunID, want)
		}
		if a.Tenant != "acme" {
			t.Fatalf("pending[%d] tenant %q", i, a.Tenant)
		}
	}
	// Duplicate admission of a pending run is refused: the run ID is the
	// leased resource, two rows would race themselves.
	if err := q.Add(Admission{RunID: "run-000002"}); err == nil {
		t.Fatal("duplicate admission accepted")
	}
	if err := q.Remove("run-000002"); err != nil {
		t.Fatal(err)
	}
	if err := q.Remove("run-000002"); err != nil {
		t.Fatalf("idempotent remove: %v", err)
	}
	if q.Depth() != 4 {
		t.Fatalf("depth after remove %d, want 4", q.Depth())
	}
	if _, ok := q.Get("run-000002"); ok {
		t.Fatal("removed admission still readable")
	}
	if a, ok := q.Get("run-000003"); !ok || a.RunID != "run-000003" {
		t.Fatalf("Get(run-000003) = %+v, %v", a, ok)
	}
}

// TestAdmissionQueueDurability pins the handoff contract: admissions written
// by one process (queue instance) are drained by the next, in order, and the
// tail ordinal never reuses keys.
func TestAdmissionQueueDurability(t *testing.T) {
	db := admissionDB(t)
	q1, err := NewAdmissionQueue(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := q1.Add(Admission{RunID: "run-000001", Options: `{"parallel":4}`}); err != nil {
		t.Fatal(err)
	}
	if err := q1.Add(Admission{RunID: "run-000002"}); err != nil {
		t.Fatal(err)
	}

	// A second queue over the same DB — the surviving orchestrator — sees
	// both rows and appends after them.
	q2, err := NewAdmissionQueue(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Add(Admission{RunID: "run-000003"}); err != nil {
		t.Fatal(err)
	}
	pending, err := q2.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 3 {
		t.Fatalf("pending %d, want 3", len(pending))
	}
	if pending[0].Options != `{"parallel":4}` {
		t.Fatalf("options not round-tripped: %q", pending[0].Options)
	}
	for i, want := range []string{"run-000001", "run-000002", "run-000003"} {
		if pending[i].RunID != want {
			t.Fatalf("pending[%d] = %s, want %s", i, pending[i].RunID, want)
		}
	}
}

// TestAdmissionQueueHint pins the push side of event-driven admission: the
// hint is down on an empty queue, up once an Add has committed — with the row
// already in Pending for whoever receives it — coalesces any number of Adds
// into one signal without blocking them, stays down after a refused Add, and
// comes up raised on a queue opened over surviving rows.
func TestAdmissionQueueHint(t *testing.T) {
	db := admissionDB(t)
	q, err := NewAdmissionQueue(db)
	if err != nil {
		t.Fatal(err)
	}
	raised := func(q *AdmissionQueue) bool {
		select {
		case <-q.Hint():
			return true
		default:
			return false
		}
	}
	if raised(q) {
		t.Fatal("hint raised on an empty, freshly created queue")
	}
	for i := 0; i < 3; i++ {
		if err := q.Add(Admission{RunID: fmt.Sprintf("run-%06d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !raised(q) {
		t.Fatal("hint not raised after committed admissions")
	}
	if pending, _ := q.Pending(); len(pending) != 3 {
		t.Fatalf("receiver of the hint found %d pending, want 3", len(pending))
	}
	if raised(q) {
		t.Fatal("three admissions left more than one signal: the hint must coalesce")
	}
	if err := q.Add(Admission{RunID: "run-000001"}); err == nil {
		t.Fatal("duplicate admission accepted")
	}
	if raised(q) {
		t.Fatal("hint raised by an admission that did not commit")
	}

	reopened, err := NewAdmissionQueue(db)
	if err != nil {
		t.Fatal(err)
	}
	if !raised(reopened) {
		t.Fatal("queue opened over surviving rows did not start with its hint raised")
	}
}

// BenchmarkAdmission measures the admit→claim→complete row lifecycle of the
// durable admission queue — the fixed per-run overhead the scheduler path
// adds on top of detection itself.
func BenchmarkAdmission(b *testing.B) {
	db := admissionDB(b)
	q, err := NewAdmissionQueue(db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("run-%09d", i)
		if err := q.Add(Admission{RunID: id, Tenant: "bench"}); err != nil {
			b.Fatal(err)
		}
		if _, err := q.Pending(); err != nil {
			b.Fatal(err)
		}
		if err := q.Remove(id); err != nil {
			b.Fatal(err)
		}
	}
}
