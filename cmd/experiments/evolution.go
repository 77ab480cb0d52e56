package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/curation"
	"repro/internal/fnjv"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// E10 (supplementary) — quality decay under knowledge evolution: the paper's
// central claim ("knowledge about the world may evolve, and quality decrease
// with time, hampering long term preservation") as a measured time series.
// Each simulated epoch, new taxonomic revisions deprecate a slice of the
// still-accepted names; the monitor re-assesses and accuracy falls. Halfway
// through, curators catch up (approve the renames) and the curated view
// recovers while the raw metadata keeps degrading.
func runEvolution(e *environment) error {
	e.build()
	// Work on a fresh system so repeated -run invocations stay independent.
	dir, err := os.MkdirTemp("", "fnjv-evolution-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sys, err := core.Open(dir, core.Options{Sync: storage.SyncNever})
	if err != nil {
		return err
	}
	defer sys.Close()

	// Copy the shared collection into the fresh system.
	var recs []*fnjv.Record
	if err := e.sys.Records.Scan(func(r *fnjv.Record) bool {
		recs = append(recs, r)
		return true
	}); err != nil {
		return err
	}
	if err := sys.Records.PutAll(recs); err != nil {
		return err
	}

	mon := core.NewMonitor(sys, e.taxa.Checklist, core.RunOptions{Parallel: e.parallel})

	const epochs = 8
	perEpoch := e.species / 60 // a steady trickle of revisions
	if perEpoch < 3 {
		perEpoch = 3
	}
	deprecatedTotal := 0
	nextName := 0

	fmt.Printf("%-7s %-12s %-10s %-10s %-22s\n", "epoch", "raw-accuracy", "utility", "outdated", "alerts")
	for epoch := 0; epoch < epochs; epoch++ {
		if epoch > 0 {
			// Science marches on.
			n := 0
			for ; nextName < len(e.taxa.HistoricalNames) && n < perEpoch; nextName++ {
				name := e.taxa.HistoricalNames[nextName]
				res, err := e.taxa.Checklist.Resolve(context.Background(), name)
				if err != nil || res.Status != taxonomy.StatusAccepted {
					continue
				}
				repl := &taxonomy.Taxon{
					ID:     fmt.Sprintf("EVO-%03d-%03d", epoch, n),
					Name:   taxonomy.Name{Genus: "Evolutus", Epithet: fmt.Sprintf("epocha%devo%d", epoch, n)},
					Status: taxonomy.StatusAccepted,
					Group:  res.Group,
				}
				when := time.Date(2014+epoch, 1, 1, 0, 0, 0, 0, time.UTC)
				if err := e.taxa.Checklist.Deprecate(name, repl, when, fmt.Sprintf("Revision vol. %d", epoch)); err != nil {
					return err
				}
				n++
				deprecatedTotal++
			}
		}
		sample, alerts, err := mon.ReassessOnce(context.Background())
		if err != nil {
			return err
		}
		alertStr := "-"
		if len(alerts) > 0 {
			alertStr = string(alerts[0].Kind)
		}
		fmt.Printf("%-7d %-12.4f %-10.4f %-10d %-22s\n",
			epoch, sample.Accuracy, sample.Utility, sample.Outdated, alertStr)

		// Halfway: curation catches up.
		if epoch == epochs/2 {
			rr, err := curation.Review(sys.Ledger, curation.DefaultCurator, "biologist", time.Now())
			if err != nil {
				return err
			}
			healed, total, err := curatedAccuracy(sys, e.taxa.Checklist)
			if err != nil {
				return err
			}
			fmt.Printf("        >>> curators review the backlog: %d approved, %d deferred\n", rr.Approved, rr.Deferred)
			fmt.Printf("        >>> curated-view accuracy: %.4f (%d/%d records resolve as accepted)\n",
				float64(healed)/float64(total), healed, total)
		}
	}
	first, last, delta, n, err := mon.Trend()
	if err != nil {
		return err
	}
	fmt.Printf("\ntrend over %d samples: raw accuracy %.4f -> %.4f (Δ %+.4f)\n", n, first, last, delta)
	fmt.Printf("deprecations injected: %d — raw metadata decays while the curated view heals:\n", deprecatedTotal)
	fmt.Printf("the paper's argument that curation must be periodic, made measurable.\n")
	return nil
}

// curatedAccuracy computes the fraction of records whose *curated* name
// (latest approved update, falling back to the stored name) is currently
// accepted by the authority.
func curatedAccuracy(sys *core.System, resolver taxonomy.Resolver) (healed, total int, err error) {
	var scanErr error
	err = sys.Records.Scan(func(rec *fnjv.Record) bool {
		name, cerr := curation.CuratedName(sys.Ledger, rec.ID, rec.Species)
		if cerr != nil {
			scanErr = cerr
			return false
		}
		total++
		res, rerr := resolver.Resolve(context.Background(), name)
		if rerr == nil && res.Status == taxonomy.StatusAccepted {
			healed++
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	return healed, total, err
}
