package curation

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fnjv"
	"repro/internal/taxonomy"
)

// Stage-1, step 1 (§IV.B): "basic metadata cleaning algorithms, e.g.,
// checking attribute domains, and syntactic corrections".

// Issue is one problem found on a record.
type Issue struct {
	RecordID string
	Field    string
	Kind     string // "domain" | "syntax"
	Detail   string
	// Repaired indicates the cleaner fixed the value (vs only flagging it).
	Repaired bool
	OldValue string
	NewValue string
}

// CleanReport summarizes a cleaning pass.
type CleanReport struct {
	RecordsChecked int
	Issues         []Issue
	Repaired       int
	FlaggedOnly    int
}

// Cleaner runs domain checks and syntactic corrections over a collection.
type Cleaner struct {
	// Checklist enables fuzzy repair of typo-damaged species names;
	// nil restricts cleaning to normalization.
	Checklist *taxonomy.Checklist
	// Ledger receives history entries for applied repairs, by actor
	// "cleaner"; nil skips logging.
	Ledger *Ledger
}

// fuzzyDistance is the maximum edit distance for name repair.
const fuzzyDistance = 2

// Clean checks every record, repairing what it safely can (writing the
// repaired record back to the store and logging the change) and flagging the
// rest for human attention.
func (c *Cleaner) Clean(store fnjv.Records) (*CleanReport, error) {
	report := &CleanReport{}
	var dirty []*fnjv.Record

	err := store.Scan(func(r *fnjv.Record) bool {
		report.RecordsChecked++
		changed := false

		// Syntactic species-name repair.
		if r.Species != "" {
			repaired, issue := c.repairName(r)
			if issue != nil {
				report.Issues = append(report.Issues, *issue)
			}
			changed = changed || repaired
		}

		// Domain checks.
		issues, fixed := domainCheck(r)
		report.Issues = append(report.Issues, issues...)
		changed = changed || fixed

		if changed {
			cp := *r
			dirty = append(dirty, &cp)
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	for _, r := range dirty {
		if err := store.Update(r); err != nil {
			return nil, err
		}
	}
	for i := range report.Issues {
		is := &report.Issues[i]
		if is.Repaired {
			report.Repaired++
			if c.Ledger != nil {
				if err := c.Ledger.LogChange(HistoryEntry{
					RecordID: is.RecordID, Field: is.Field,
					OldValue: is.OldValue, NewValue: is.NewValue,
					Reason: "stage1-clean:" + is.Kind, Actor: "cleaner", At: time.Now(),
				}); err != nil {
					return nil, err
				}
			}
		} else {
			report.FlaggedOnly++
		}
	}
	return report, nil
}

// repairName normalizes and (when a checklist is available) fuzzy-repairs
// the record's species string in place. It reports whether the record
// changed and the issue found, if any.
func (c *Cleaner) repairName(r *fnjv.Record) (bool, *Issue) {
	orig := r.Species
	norm := taxonomy.Normalize(orig)
	if norm == orig {
		// Already canonical in form; check spelling against the authority.
		if c.Checklist == nil {
			return false, nil
		}
		if _, err := c.Checklist.Resolve(context.Background(), norm); err == nil {
			return false, nil
		}
		res, err := c.Checklist.ResolveFuzzy(norm, fuzzyDistance)
		if err != nil || !res.Fuzzy {
			return false, &Issue{
				RecordID: r.ID, Field: "species", Kind: "syntax",
				Detail: fmt.Sprintf("name %q unknown to authority", orig),
			}
		}
		matched := matchedName(res)
		r.Species = matched
		return true, &Issue{
			RecordID: r.ID, Field: "species", Kind: "syntax", Repaired: true,
			OldValue: orig, NewValue: matched,
			Detail: fmt.Sprintf("typo repair at distance %d", res.Distance),
		}
	}
	if norm == "" {
		return false, &Issue{
			RecordID: r.ID, Field: "species", Kind: "syntax",
			Detail: fmt.Sprintf("unparseable name %q", orig),
		}
	}
	// Normalization changed the string (case/whitespace). If a checklist is
	// available, also verify spelling.
	final := norm
	detail := "normalized case/whitespace"
	if c.Checklist != nil {
		if _, err := c.Checklist.Resolve(context.Background(), norm); err != nil {
			res, err2 := c.Checklist.ResolveFuzzy(norm, fuzzyDistance)
			if err2 == nil && res.Fuzzy {
				final = matchedName(res)
				detail = fmt.Sprintf("normalized + typo repair at distance %d", res.Distance)
			}
		}
	}
	r.Species = final
	return true, &Issue{
		RecordID: r.ID, Field: "species", Kind: "syntax", Repaired: true,
		OldValue: orig, NewValue: final, Detail: detail,
	}
}

// matchedName reconstructs the checklist spelling the fuzzy match hit: the
// name as stored in the authority, not the (possibly renamed) accepted name
// — renames are detection's job, not cleaning's.
func matchedName(res taxonomy.Resolution) string {
	// For accepted names the accepted name IS the matched name; for synonyms
	// the matched entry's own spelling is recoverable from the history or
	// the accepted name. We use the query's nearest checklist entry, which
	// Resolution carries via TaxonID.
	if res.Status == taxonomy.StatusAccepted {
		return res.AcceptedName
	}
	// Synonym/provisional: the matched spelling is the first event's
	// FromName when history exists; otherwise fall back to accepted.
	if len(res.History) > 0 {
		return res.History[0].FromName
	}
	return res.AcceptedName
}

// domainCheck validates attribute domains, repairing what has an obvious
// safe fix and flagging the rest.
func domainCheck(r *fnjv.Record) ([]Issue, bool) {
	var issues []Issue
	changed := false

	if r.NumIndividuals < 0 {
		issues = append(issues, Issue{
			RecordID: r.ID, Field: "num_individuals", Kind: "domain",
			Detail:   fmt.Sprintf("negative count %d reset to unknown (0)", r.NumIndividuals),
			Repaired: true, OldValue: strconv.Itoa(r.NumIndividuals), NewValue: "0",
		})
		r.NumIndividuals = 0
		changed = true
	}
	if r.AirTempC != nil && (*r.AirTempC < -10 || *r.AirTempC > 50) {
		issues = append(issues, Issue{
			RecordID: r.ID, Field: "air_temp_c", Kind: "domain",
			Detail:   fmt.Sprintf("temperature %.1f°C out of domain, cleared", *r.AirTempC),
			Repaired: true, OldValue: fmt.Sprintf("%.1f", *r.AirTempC), NewValue: "",
		})
		r.AirTempC = nil
		changed = true
	}
	if r.HumidityPct != nil && (*r.HumidityPct < 0 || *r.HumidityPct > 100) {
		issues = append(issues, Issue{
			RecordID: r.ID, Field: "humidity_pct", Kind: "domain",
			Detail:   fmt.Sprintf("humidity %.1f%% out of domain, cleared", *r.HumidityPct),
			Repaired: true, OldValue: fmt.Sprintf("%.1f", *r.HumidityPct), NewValue: "",
		})
		r.HumidityPct = nil
		changed = true
	}
	if r.CollectTime != "" && !validClock(r.CollectTime) {
		issues = append(issues, Issue{
			RecordID: r.ID, Field: "collect_time", Kind: "domain",
			Detail:   fmt.Sprintf("invalid time %q cleared", r.CollectTime),
			Repaired: true, OldValue: r.CollectTime, NewValue: "",
		})
		r.CollectTime = ""
		changed = true
	}
	if !r.CollectDate.IsZero() && (r.CollectDate.Year() < 1900 || r.CollectDate.After(time.Now().Add(24*time.Hour))) {
		issues = append(issues, Issue{
			RecordID: r.ID, Field: "collect_date", Kind: "domain",
			Detail: fmt.Sprintf("implausible date %s flagged", r.CollectDate.Format("2006-01-02")),
		})
	}
	if r.Latitude != nil && r.Longitude != nil {
		if *r.Latitude < -90 || *r.Latitude > 90 || *r.Longitude < -180 || *r.Longitude > 180 {
			issues = append(issues, Issue{
				RecordID: r.ID, Field: "latitude", Kind: "domain",
				Detail:   "coordinates out of range, cleared",
				Repaired: true, OldValue: fmt.Sprintf("%.4f,%.4f", *r.Latitude, *r.Longitude), NewValue: "",
			})
			r.Latitude, r.Longitude = nil, nil
			changed = true
		}
	}
	return issues, changed
}

func validClock(s string) bool {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return false
	}
	h, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	return err1 == nil && err2 == nil && h >= 0 && h <= 23 && m >= 0 && m <= 59
}
