package workflow

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/storage"
)

// Admission is one admitted-but-unstarted run: the caller minted the run ID
// and recorded the intent to execute durably, but no orchestrator has claimed
// it yet. Options is an opaque blob the admitting layer round-trips (core
// serializes the run options there); the queue never interprets it.
type Admission struct {
	RunID      string
	Tenant     string
	Options    string
	EnqueuedAt time.Time
}

// admissionTable holds one row per pending admission, FIFO-ordered by a
// zero-padded sequence key.
const admissionTable = "wf_admissions"

func admissionSchema() *storage.Schema {
	return storage.MustSchema(admissionTable,
		storage.Column{Name: "key", Kind: storage.KindString},
		storage.Column{Name: "run_id", Kind: storage.KindString},
		storage.Column{Name: "tenant", Kind: storage.KindString},
		storage.Column{Name: "options", Kind: storage.KindString},
		storage.Column{Name: "enqueued_at", Kind: storage.KindTime},
	)
}

// AdmissionQueue is the durable queue of admitted-but-unstarted runs: the
// handoff point between the admission surface (POST /api/v1/detect) and the
// scheduler pool. A row survives process death — the next process to open
// the store drains it — and is removed only when its run has been carried to
// a terminal state. Ordering is FIFO by admission time. Safe for concurrent
// use; arbitration between pool members happens at the run's claim in the
// process's ownership set, not here.
//
// Beside the rows the queue carries a wake hint for the in-process pool (see
// Hint). The row is the truth and the hint only a hint: it says "look at
// Pending now", never what is in it.
type AdmissionQueue struct {
	db     *storage.DB
	schema *storage.Schema
	hint   chan struct{}

	mu  sync.Mutex
	seq int64 // next tail key ordinal
}

// NewAdmissionQueue opens (or creates) the admission table in db and recovers
// the tail ordinal past any surviving rows.
func NewAdmissionQueue(db *storage.DB) (*AdmissionQueue, error) {
	schema := admissionSchema()
	if db.Table(admissionTable) == nil {
		if err := db.CreateTable(schema); err != nil && db.Table(admissionTable) == nil {
			return nil, fmt.Errorf("workflow: create admission table: %w", err)
		}
	}
	q := &AdmissionQueue{db: db, schema: schema, hint: make(chan struct{}, 1)}
	db.Table(admissionTable).Scan(func(r storage.Row) bool {
		var ord int64
		fmt.Sscanf(r.Get(schema, "key").Str(), "%012d", &ord)
		if ord >= q.seq {
			q.seq = ord + 1
		}
		return true
	})
	if db.Table(admissionTable).Len() > 0 {
		// Rows survived a restart: whoever listens first drains them at once.
		q.raise()
	}
	return q, nil
}

// Hint is the queue's wake signal: it becomes readable after an admission has
// committed (and on a queue opened over surviving rows), so whoever receives
// from it finds the row in Pending. Raises coalesce — one receive may stand
// for many admissions — and a receive takes the signal from every other
// listener, so a listener that dies after receiving loses it: listeners keep a
// timer beside it.
func (q *AdmissionQueue) Hint() <-chan struct{} { return q.hint }

// raise makes Hint readable without ever blocking the admitting caller.
func (q *AdmissionQueue) raise() {
	select {
	case q.hint <- struct{}{}:
	default:
	}
}

// Add appends one admission to the tail. The run ID must be unique across
// pending admissions (it is the leased resource arbitrating execution).
func (q *AdmissionQueue) Add(a Admission) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if a.RunID == "" {
		return fmt.Errorf("workflow: admission without a run ID")
	}
	if _, ok := q.findLocked(a.RunID); ok {
		return fmt.Errorf("workflow: run %s already admitted", a.RunID)
	}
	if a.EnqueuedAt.IsZero() {
		a.EnqueuedAt = time.Now()
	}
	key := fmt.Sprintf("%012d", q.seq)
	err := q.db.Apply(storage.InsertOp(admissionTable, storage.Row{
		storage.S(key), storage.S(a.RunID), storage.S(a.Tenant),
		storage.S(a.Options), storage.T(a.EnqueuedAt),
	}))
	if err != nil {
		return fmt.Errorf("workflow: admit %s: %w", a.RunID, err)
	}
	q.seq++
	q.raise()
	return nil
}

func (q *AdmissionQueue) fromRow(r storage.Row) Admission {
	return Admission{
		RunID:      r.Get(q.schema, "run_id").Str(),
		Tenant:     r.Get(q.schema, "tenant").Str(),
		Options:    r.Get(q.schema, "options").Str(),
		EnqueuedAt: r.Get(q.schema, "enqueued_at").Time(),
	}
}

// findLocked returns the row key of the admission for runID. Callers hold q.mu.
func (q *AdmissionQueue) findLocked(runID string) (string, bool) {
	var key string
	found := false
	q.db.Table(admissionTable).Scan(func(r storage.Row) bool {
		if r.Get(q.schema, "run_id").Str() == runID {
			key = r.Get(q.schema, "key").Str()
			found = true
			return false
		}
		return true
	})
	return key, found
}

// Get returns the pending admission for runID, if any.
func (q *AdmissionQueue) Get(runID string) (Admission, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out Admission
	found := false
	q.db.Table(admissionTable).Scan(func(r storage.Row) bool {
		if r.Get(q.schema, "run_id").Str() == runID {
			out = q.fromRow(r)
			found = true
			return false
		}
		return true
	})
	return out, found
}

// Pending lists every pending admission in FIFO order.
func (q *AdmissionQueue) Pending() ([]Admission, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Admission
	q.db.Table(admissionTable).Scan(func(r storage.Row) bool {
		out = append(out, q.fromRow(r))
		return true
	})
	return out, nil
}

// Remove deletes the admission for runID; removing an absent admission is an
// idempotent no-op (two orchestrators may both observe a run's completion).
func (q *AdmissionQueue) Remove(runID string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	key, ok := q.findLocked(runID)
	if !ok {
		return nil
	}
	if err := q.db.Apply(storage.DeleteOp(admissionTable, storage.S(key))); err != nil {
		return fmt.Errorf("workflow: remove admission %s: %w", runID, err)
	}
	return nil
}

// Sync fsyncs every admission added so far, whatever the store's sync
// policy: an Add is in the file once it returns and survives the process's
// death, but under SyncOnClose not a power loss. The scheduler backend syncs
// before it executes an admission, so a run that was started survives power
// loss too.
func (q *AdmissionQueue) Sync() error { return q.db.Sync() }

// Depth is the number of pending admissions.
func (q *AdmissionQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.db.Table(admissionTable).Len()
}
