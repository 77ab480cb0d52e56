package curation

import (
	"fmt"
	"time"
)

// Review loop (§IV.B): "Before such names are persisted in the database,
// they are flagged to be checked by biologists." A CuratorPolicy stands in
// for the biologist; the default accepts authority-referenced renames and
// defers provisional names to a second look, approximating expert behaviour.

// Verdict is a curator's decision on one pending update.
type Verdict uint8

// Verdicts.
const (
	// Approve accepts the repair; the updated name becomes the curated name
	// (the original record still keeps its historical value).
	Approve Verdict = iota
	// Reject discards the proposal.
	Reject
	// Defer leaves the update pending for a later pass.
	Defer
)

// CuratorPolicy decides a verdict for one pending update.
type CuratorPolicy func(u *NameUpdate) Verdict

// DefaultCurator approves synonym renames that carry a literature reference,
// defers provisional names (nomen inquirendum needs taxonomic work, not a
// rename), and rejects the rest.
func DefaultCurator(u *NameUpdate) Verdict {
	switch {
	case u.Status == "synonym" && u.Reference != "" && u.UpdatedName != "":
		return Approve
	case u.Status == "provisionally accepted":
		return Defer
	default:
		return Reject
	}
}

// ReviewReport summarizes one review pass.
type ReviewReport struct {
	Reviewed int
	Approved int
	Rejected int
	Deferred int
}

// Review applies policy to every pending update, recording verdicts in the
// ledger and logging approved changes to the curation history.
func Review(l *Ledger, policy CuratorPolicy, reviewer string, when time.Time) (*ReviewReport, error) {
	if policy == nil {
		policy = DefaultCurator
	}
	if reviewer == "" {
		reviewer = "curator"
	}
	pending, err := l.Pending()
	if err != nil {
		return nil, err
	}
	report := &ReviewReport{}
	for _, u := range pending {
		report.Reviewed++
		switch policy(u) {
		case Approve:
			if err := l.Resolve(u.ID, ReviewApproved, reviewer, when); err != nil {
				return nil, err
			}
			if err := l.LogChange(HistoryEntry{
				RecordID: u.RecordID, Field: "species",
				OldValue: u.OriginalName, NewValue: u.UpdatedName,
				Reason: fmt.Sprintf("name-update:%s (%s)", u.Status, u.Reference),
				Actor:  reviewer, At: when,
			}); err != nil {
				return nil, err
			}
			report.Approved++
		case Reject:
			if err := l.Resolve(u.ID, ReviewRejected, reviewer, when); err != nil {
				return nil, err
			}
			report.Rejected++
		case Defer:
			report.Deferred++
		}
	}
	return report, nil
}

// CuratedName answers "what name should analyses use for this record?": the
// latest approved update if any, otherwise the record's original name. The
// original metadata stays unchanged — papers citing the old name still match
// the stored record.
func CuratedName(l *Ledger, recordID, originalName string) (string, error) {
	updates, err := l.UpdatesForRecord(recordID)
	if err != nil {
		return "", err
	}
	name := originalName
	var latest time.Time
	for _, u := range updates {
		if u.Review == ReviewApproved && u.UpdatedName != "" && !u.ReviewedAt.Before(latest) {
			latest = u.ReviewedAt
			name = u.UpdatedName
		}
	}
	return name, nil
}
