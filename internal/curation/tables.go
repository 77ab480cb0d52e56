// Package curation implements the metadata curation steps of the case study
// (§IV): stage-1 cleaning (domain checks and syntactic corrections),
// geocoding and environmental gap-filling, the stage-2 spatial error
// analysis, and the ledger the outdated-species-name detection (package core)
// writes its proposals to. Original records are never modified by
// detection: repairs are persisted in a separate updates table
// referencing the original record, flagged for expert review, and every
// applied change lands in a curation-history log — the paper's strategy for
// keeping the original collection unchanged while recording its evolution.
package curation

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/storage"
)

// Update review states.
const (
	ReviewPending  = "pending"
	ReviewApproved = "approved"
	ReviewRejected = "rejected"
)

// NameUpdate is one proposed species-name repair: the outdated name found on
// a record and the authority's current name, linked to the original record
// (which stays untouched).
type NameUpdate struct {
	ID           string
	RecordID     string
	OriginalName string
	UpdatedName  string // "" when the name is provisional (nomen inquirendum)
	Status       string // authority status: "synonym" | "provisionally accepted"
	Reference    string // publication behind the change
	DetectedAt   time.Time
	Review       string // pending | approved | rejected
	ReviewedBy   string
	ReviewedAt   time.Time
}

// HistoryEntry is one applied metadata modification — the historical log of
// curation the paper's ongoing work adds to the FNJV database.
type HistoryEntry struct {
	ID       string
	RecordID string
	Field    string
	OldValue string
	NewValue string
	Reason   string
	Actor    string
	At       time.Time
}

const (
	updatesTable = "name_updates"
	historyTable = "curation_history"
)

var (
	updatesSchema = storage.MustSchema(updatesTable,
		storage.Column{Name: "id", Kind: storage.KindString},
		storage.Column{Name: "record_id", Kind: storage.KindString},
		storage.Column{Name: "original_name", Kind: storage.KindString},
		storage.Column{Name: "updated_name", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "status", Kind: storage.KindString},
		storage.Column{Name: "reference", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "detected_at", Kind: storage.KindTime},
		storage.Column{Name: "review", Kind: storage.KindString},
		storage.Column{Name: "reviewed_by", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "reviewed_at", Kind: storage.KindTime, Nullable: true},
	)
	historySchema = storage.MustSchema(historyTable,
		storage.Column{Name: "id", Kind: storage.KindString},
		storage.Column{Name: "record_id", Kind: storage.KindString},
		storage.Column{Name: "field", Kind: storage.KindString},
		storage.Column{Name: "old_value", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "new_value", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "reason", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "actor", Kind: storage.KindString, Nullable: true},
		storage.Column{Name: "at", Kind: storage.KindTime},
	)
)

// Ledger persists updates and history in the embedded database.
type Ledger struct {
	db *storage.DB
	// mu guards the ID counters: concurrent detections share one ledger, and
	// two writers minting the same ID is a duplicate-key insert failure.
	mu      sync.Mutex
	nextUpd int
	nextHis int
}

// nextID mints the next ID of one counter.
func (l *Ledger) nextID(counter *int, format string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	*counter++
	return fmt.Sprintf(format, *counter)
}

// ErrUpdateNotFound is returned for unknown update IDs.
var ErrUpdateNotFound = errors.New("curation: update not found")

// NewLedger opens (creating if needed) the curation tables in db.
func NewLedger(db *storage.DB) (*Ledger, error) {
	if db.Table(updatesTable) == nil {
		if err := db.Apply(
			storage.CreateTableOp(updatesSchema),
			storage.CreateTableOp(historySchema),
			storage.CreateIndexOp(updatesTable, "record_id"),
			storage.CreateIndexOp(updatesTable, "review"),
			storage.CreateIndexOp(historyTable, "record_id"),
		); err != nil {
			return nil, err
		}
	}
	l := &Ledger{db: db}
	l.nextUpd = db.Table(updatesTable).Len()
	l.nextHis = db.Table(historyTable).Len()
	return l, nil
}

func updateToRow(u *NameUpdate) storage.Row {
	revAt := storage.Null()
	if !u.ReviewedAt.IsZero() {
		revAt = storage.T(u.ReviewedAt)
	}
	return storage.Row{
		storage.S(u.ID), storage.S(u.RecordID), storage.S(u.OriginalName),
		storage.S(u.UpdatedName), storage.S(u.Status), storage.S(u.Reference),
		storage.T(u.DetectedAt), storage.S(u.Review), storage.S(u.ReviewedBy), revAt,
	}
}

func rowToUpdate(row storage.Row) *NameUpdate {
	u := &NameUpdate{
		ID:           row.Get(updatesSchema, "id").Str(),
		RecordID:     row.Get(updatesSchema, "record_id").Str(),
		OriginalName: row.Get(updatesSchema, "original_name").Str(),
		UpdatedName:  row.Get(updatesSchema, "updated_name").Str(),
		Status:       row.Get(updatesSchema, "status").Str(),
		Reference:    row.Get(updatesSchema, "reference").Str(),
		DetectedAt:   row.Get(updatesSchema, "detected_at").Time(),
		Review:       row.Get(updatesSchema, "review").Str(),
		ReviewedBy:   row.Get(updatesSchema, "reviewed_by").Str(),
	}
	if v := row.Get(updatesSchema, "reviewed_at"); !v.IsNull() {
		u.ReviewedAt = v.Time()
	}
	return u
}

// AddUpdates persists proposed updates (review state pending) in bulk.
func (l *Ledger) AddUpdates(updates []*NameUpdate) error {
	const batch = 512
	for start := 0; start < len(updates); start += batch {
		end := start + batch
		if end > len(updates) {
			end = len(updates)
		}
		ops := make([]storage.Op, 0, end-start)
		for _, u := range updates[start:end] {
			if u.ID == "" {
				u.ID = l.nextID(&l.nextUpd, "UPD-%06d")
			}
			if u.Review == "" {
				u.Review = ReviewPending
			}
			ops = append(ops, storage.InsertOp(updatesTable, updateToRow(u)))
		}
		if err := l.db.Apply(ops...); err != nil {
			return err
		}
	}
	return nil
}

// Update loads one update by ID.
func (l *Ledger) Update(id string) (*NameUpdate, error) {
	row, err := l.db.Table(updatesTable).Get(storage.S(id))
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return nil, fmt.Errorf("%w: %q", ErrUpdateNotFound, id)
		}
		return nil, err
	}
	return rowToUpdate(row), nil
}

// UpdatesForRecord returns every update referencing a record — the paper's
// "reference between the original metadata record and the species name".
func (l *Ledger) UpdatesForRecord(recordID string) ([]*NameUpdate, error) {
	rows, err := l.db.Table(updatesTable).Lookup("record_id", storage.S(recordID))
	if err != nil {
		return nil, err
	}
	out := make([]*NameUpdate, 0, len(rows))
	for _, row := range rows {
		out = append(out, rowToUpdate(row))
	}
	return out, nil
}

// Pending returns all updates awaiting review, in ID order.
func (l *Ledger) Pending() ([]*NameUpdate, error) {
	rows, err := l.db.Table(updatesTable).Lookup("review", storage.S(ReviewPending))
	if err != nil {
		return nil, err
	}
	out := make([]*NameUpdate, 0, len(rows))
	for _, row := range rows {
		out = append(out, rowToUpdate(row))
	}
	return out, nil
}

// CountUpdates counts updates by review state ("" counts all).
func (l *Ledger) CountUpdates(review string) int {
	return l.db.Table(updatesTable).Count(func(row storage.Row) bool {
		return review == "" || row.Get(updatesSchema, "review").Str() == review
	})
}

// Resolve records the curator's verdict on a pending update.
func (l *Ledger) Resolve(id, verdict, reviewer string, when time.Time) error {
	if verdict != ReviewApproved && verdict != ReviewRejected {
		return fmt.Errorf("curation: verdict must be approved or rejected, got %q", verdict)
	}
	u, err := l.Update(id)
	if err != nil {
		return err
	}
	if u.Review != ReviewPending {
		return fmt.Errorf("curation: update %q already %s", id, u.Review)
	}
	u.Review = verdict
	u.ReviewedBy = reviewer
	u.ReviewedAt = when
	return l.db.Update(updatesTable, updateToRow(u))
}

// LogChange appends one applied modification to the history log.
func (l *Ledger) LogChange(e HistoryEntry) error {
	if e.ID == "" {
		e.ID = l.nextID(&l.nextHis, "HIS-%06d")
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	return l.db.Insert(historyTable, storage.Row{
		storage.S(e.ID), storage.S(e.RecordID), storage.S(e.Field),
		storage.S(e.OldValue), storage.S(e.NewValue), storage.S(e.Reason),
		storage.S(e.Actor), storage.T(e.At),
	})
}

// History returns the modification log of one record in entry order.
func (l *Ledger) History(recordID string) ([]HistoryEntry, error) {
	rows, err := l.db.Table(historyTable).Lookup("record_id", storage.S(recordID))
	if err != nil {
		return nil, err
	}
	out := make([]HistoryEntry, 0, len(rows))
	for _, row := range rows {
		out = append(out, HistoryEntry{
			ID:       row.Get(historySchema, "id").Str(),
			RecordID: row.Get(historySchema, "record_id").Str(),
			Field:    row.Get(historySchema, "field").Str(),
			OldValue: row.Get(historySchema, "old_value").Str(),
			NewValue: row.Get(historySchema, "new_value").Str(),
			Reason:   row.Get(historySchema, "reason").Str(),
			Actor:    row.Get(historySchema, "actor").Str(),
			At:       row.Get(historySchema, "at").Time(),
		})
	}
	return out, nil
}

// HistoryCount reports the total number of logged modifications.
func (l *Ledger) HistoryCount() int { return l.db.Table(historyTable).Len() }
