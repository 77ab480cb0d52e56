package main

import (
	"fmt"
	"log"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// environment lazily builds the calibrated substrate shared by all
// experiments: the synthetic Catalogue of Life, gazetteer, climate source
// and the FNJV collection loaded into a fresh preservation system.
type environment struct {
	records int
	species int
	seed    int64
	// parallel is the engine's worker-pool size for detection runs (0 or 1
	// is one worker: sequential execution).
	parallel int
	// short shrinks trial counts and substrates for CI smoke runs (chaos).
	short bool

	once sync.Once
	err  error

	taxa *taxonomy.Generated
	gaz  *geo.Gazetteer
	env  *envsource.Simulator
	col  *fnjv.Collection
	sys  *core.System
	dir  string
}

func newEnvironment(records, species int, seed int64, parallel int) *environment {
	return &environment{records: records, species: species, seed: seed, parallel: parallel}
}

// paper constants for calibration commentary.
const (
	paperRecords  = 11898
	paperSpecies  = 1929
	paperOutdated = 134
)

func (e *environment) build() {
	e.once.Do(func() {
		log.Printf("building calibrated substrate: %d records, %d species (seed %d)...", e.records, e.species, e.seed)
		e.taxa, e.err = taxonomy.Generate(taxonomy.GeneratorSpec{
			Species:             e.species,
			OutdatedFraction:    float64(paperOutdated) / float64(paperSpecies),
			ProvisionalFraction: 0.05,
			Seed:                e.seed,
		})
		if e.err != nil {
			return
		}
		e.gaz = geo.SyntheticGazetteer(40, e.seed+1)
		e.env = envsource.NewSimulator()
		e.col, e.err = fnjv.Generate(fnjv.CollectionSpec{
			Records: e.records,
			Seed:    e.seed + 2,
			// The Fig. 2 run happens after stage-1 step-1 cleaning; dirty
			// names are generated and cleaned by the stage1 experiment, but
			// the shared store used by figure2/3 starts clean so distinct
			// names match the paper's 1929 exactly.
			SyntaxErrorRate: 1e-12,
		}, e.taxa, e.gaz, e.env)
		if e.err != nil {
			return
		}
		e.dir, e.err = os.MkdirTemp("", "fnjv-experiments-*")
		if e.err != nil {
			return
		}
		e.sys, e.err = core.Open(e.dir, core.Options{Sync: storage.SyncNever})
		if e.err != nil {
			return
		}
		e.err = e.sys.Records.PutAll(e.col.Records)
		if e.err != nil {
			return
		}
		log.Printf("substrate ready: %d planted outdated names (%.1f%% of %d)",
			len(e.taxa.OutdatedNames), 100*float64(len(e.taxa.OutdatedNames))/float64(e.species), e.species)
	})
	if e.err != nil {
		log.Fatalf("environment: %v", e.err)
	}
}

// freshDirtyStore builds a separate store with full dirt injection for the
// stage-1 experiments, leaving the shared clean store untouched.
func (e *environment) freshDirtyStore() (*fnjv.Store, *fnjv.Collection, *storage.DB, error) {
	e.build()
	col, err := fnjv.Generate(fnjv.CollectionSpec{
		Records: e.records,
		Seed:    e.seed + 3,
	}, e.taxa, e.gaz, e.env)
	if err != nil {
		return nil, nil, nil, err
	}
	dir, err := os.MkdirTemp("", "fnjv-dirty-*")
	if err != nil {
		return nil, nil, nil, err
	}
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		return nil, nil, nil, err
	}
	store, err := fnjv.NewStore(db)
	if err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	if err := store.PutAll(col.Records); err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	return store, col, db, nil
}

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

func compareLine(metric string, paper, measured string) {
	fmt.Printf("  %-40s paper: %-22s measured: %s\n", metric, paper, measured)
}
