package curation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/fnjv"
	"repro/internal/taxonomy"
)

// DetectReport summarizes one outdated-species-name detection pass — the
// numbers the prototype publishes in Fig. 2: distinct species names in the
// database, records processed, names detected as outdated, and the updated
// names.
type DetectReport struct {
	RecordsProcessed int
	DistinctNames    int
	OutdatedNames    int
	UnknownNames     int
	// Renames maps each outdated name to its current accepted name
	// ("Nomen inquirendum" for provisional names).
	Renames map[string]string
	// Updates are the per-record repair proposals persisted to the ledger.
	Updates []*NameUpdate
	// ResolverErrors counts names that went unchecked because the authority
	// gave no usable answer: unavailable even after retries, an error
	// status, an undecodable reply.
	ResolverErrors int
	Elapsed        time.Duration
}

// OutdatedFraction is OutdatedNames / DistinctNames (Fig. 2 reports 7%).
func (r *DetectReport) OutdatedFraction() float64 {
	if r.DistinctNames == 0 {
		return 0
	}
	return float64(r.OutdatedNames) / float64(r.DistinctNames)
}

// Detector runs outdated-name detection against a taxonomic authority.
type Detector struct {
	Resolver taxonomy.Resolver
	// Ledger receives the proposed updates; nil skips persistence.
	Ledger *Ledger
	// Now supplies timestamps (defaults to time.Now).
	Now func() time.Time
}

// Detect checks every distinct species name in the store against the
// authority. For each record bearing an outdated name it creates a pending
// NameUpdate in the separate updates table; original records are not
// touched. This is the paper's core prototype (Fig. 2 / Fig. 3). Cancelling
// ctx aborts in-flight authority calls.
func (d *Detector) Detect(ctx context.Context, store fnjv.Records) (*DetectReport, error) {
	if d.Resolver == nil {
		return nil, fmt.Errorf("curation: detector needs a resolver")
	}
	now := time.Now
	if d.Now != nil {
		now = d.Now
	}
	start := now()
	distinct, err := store.DistinctSpecies()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(distinct))
	for n := range distinct {
		names = append(names, n)
	}
	sort.Strings(names)

	report := &DetectReport{
		DistinctNames: len(names),
		Renames:       map[string]string{},
	}
	outdated := map[string]taxonomy.Resolution{}
	// The error, not the resolution, classifies a name: ErrUnknownName means
	// the authority answered and does not know it; any other error means the
	// authority gave no usable answer, so the name went unchecked.
	record := func(name string, res taxonomy.Resolution, err error) {
		switch {
		case errors.Is(err, taxonomy.ErrUnknownName):
			report.UnknownNames++
		case err != nil:
			report.ResolverErrors++
		case res.Outdated():
			report.OutdatedNames++
			outdated[name] = res
			updated := res.AcceptedName
			if updated == "" {
				updated = "Nomen inquirendum"
			}
			report.Renames[name] = updated
		}
	}
	// Use the authority's batch form when it has one (one round trip for the
	// whole name set, per-name errors keeping the sequential loop's exact
	// accounting), otherwise resolve name by name.
	if batch := taxonomy.DetailedBatch(d.Resolver); batch != nil {
		for i, r := range batch.BatchResolveDetail(ctx, names) {
			record(names[i], r.Resolution, r.Err)
		}
	} else {
		for _, name := range names {
			res, err := d.Resolver.Resolve(ctx, name)
			record(name, res, err)
		}
	}

	// Build per-record updates for every record bearing an outdated name.
	err = store.Scan(func(rec *fnjv.Record) bool {
		report.RecordsProcessed++
		res, bad := outdated[rec.Species]
		if !bad {
			return true
		}
		ref := ""
		if len(res.History) > 0 {
			ref = res.History[len(res.History)-1].Reference
		}
		status := res.Status.String()
		report.Updates = append(report.Updates, &NameUpdate{
			RecordID:     rec.ID,
			OriginalName: rec.Species,
			UpdatedName:  res.AcceptedName,
			Status:       status,
			Reference:    ref,
			DetectedAt:   start,
			Review:       ReviewPending,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	if d.Ledger != nil && len(report.Updates) > 0 {
		if err := d.Ledger.AddUpdates(report.Updates); err != nil {
			return nil, err
		}
	}
	report.Elapsed = now().Sub(start)
	return report, nil
}

// RenderProgress renders the Fig. 2 progress block: "the number of distinct
// species names in the database, the number of records processed, the number
// of species names which were detected as outdated and the respective
// updated names".
func (r *DetectReport) RenderProgress() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Outdated species name detection\n")
	fmt.Fprintf(&b, "  distinct species names analyzed: %d\n", r.DistinctNames)
	fmt.Fprintf(&b, "  records processed:               %d\n", r.RecordsProcessed)
	fmt.Fprintf(&b, "  outdated species names:          %d (%.0f%% of species analyzed)\n",
		r.OutdatedNames, 100*r.OutdatedFraction())
	if r.UnknownNames > 0 {
		fmt.Fprintf(&b, "  names unknown to the authority:  %d\n", r.UnknownNames)
	}
	if r.ResolverErrors > 0 {
		fmt.Fprintf(&b, "  authority failures:              %d\n", r.ResolverErrors)
	}
	names := make([]string, 0, len(r.Renames))
	for n := range r.Renames {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "  updated names:\n")
	for _, n := range names {
		fmt.Fprintf(&b, "    %-36s -> %s\n", n, r.Renames[n])
	}
	return b.String()
}
