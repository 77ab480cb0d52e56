// Command fnjvweb serves the FNJV prototype web environment (§IV.B: "the
// case study ... was implemented in the FNJV web site environment"): a
// dashboard, the Fig. 2 detection page, metadata-based record retrieval,
// quality reports, OPM provenance export and a Linked-Data export.
//
// Usage:
//
//	fnjvweb [-addr :8080] [-data ./fnjv-data] [-records 11898] [-species 1929]
//	        [-authority URL] [-seed 2014] [-pprof ADDR] [-orchestrator NAME] [-no-scheduler]
//
// The server logs the address it listens on, so -addr 127.0.0.1:0 picks a
// free port. SIGINT or SIGTERM stops it: in-flight requests finish, the
// scheduler stops and the database closes (its final fsync) before the
// process exits with status 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only on -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/web"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run opens the data directory, starts the scheduler and serves until a
// signal; its deferred scheduler stop and database close run on every return.
func run() (err error) {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		data      = flag.String("data", "./fnjv-data", "database directory")
		records   = flag.Int("records", 11898, "records to generate when the collection is empty")
		species   = flag.Int("species", 1929, "distinct species names")
		authority = flag.String("authority", "", "URL of a colserver (empty = in-process checklist)")
		seed      = flag.Int64("seed", 2014, "PRNG seed")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
		orchName  = flag.String("orchestrator", "", "this process's name in the scheduler pool (default web-<pid>)")
		noSched   = flag.Bool("no-scheduler", false, "disable the in-process scheduler: POST /api/v1/detect runs synchronously")
	)
	flag.Parse()

	sys, err := core.Open(*data, core.Options{Sync: storage.SyncOnClose})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sys.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("closing %s: %w", *data, cerr))
			return
		}
		log.Printf("closed %s", *data)
	}()

	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species:             *species,
		OutdatedFraction:    134.0 / 1929.0,
		ProvisionalFraction: 0.05,
		Seed:                *seed,
	})
	if err != nil {
		return err
	}
	if sys.Records.Len() == 0 {
		col, err := fnjv.Generate(fnjv.CollectionSpec{Records: *records, Seed: *seed + 2, SyntaxErrorRate: 1e-12},
			taxa, geo.SyntheticGazetteer(40, *seed+1), envsource.NewSimulator())
		if err != nil {
			return err
		}
		if err := sys.Records.PutAll(col.Records); err != nil {
			return err
		}
		log.Printf("seeded collection: %d records over %d species", len(col.Records), col.DistinctSpecies)
	}

	var resolver taxonomy.Resolver = taxa.Checklist
	var resilient *taxonomy.ResilientResolver
	if *authority != "" {
		// A remote authority gets the full fault-tolerance stack: cache,
		// bulkhead, circuit breaker, per-call budget, and last-known-good
		// fallback marked Degraded. The in-process checklist needs none of it.
		client := taxonomy.NewClient(*authority)
		client.Retries = 6
		resilient = taxonomy.NewResilientResolver(client, taxonomy.ResilienceOptions{
			TTL: time.Hour,
			Breaker: resilience.BreakerOptions{
				OnStateChange: func(from, to resilience.State) {
					log.Printf("authority circuit breaker: %s → %s", from, to)
				},
			},
		})
		resolver = resilient
	}

	name := *orchName
	if name == "" {
		name = fmt.Sprintf("web-%d", os.Getpid())
	}

	// Startup reconciliation: resume any detection run a previous process
	// left unfinished, abandon (with a reason) anything unresumable. Open
	// locked the directory, so every unfinished run is an orphan: its
	// executor died with the process that held the lock before.
	sweep, err := sys.SweepUnfinishedRuns(context.Background(), resolver, core.RunOptions{Orchestrator: name})
	if err != nil {
		return fmt.Errorf("sweeping unfinished runs: %w", err)
	}
	if sweep.Found > 0 {
		log.Printf("startup sweep: %d unfinished runs, %d resumed, %d abandoned",
			sweep.Found, len(sweep.Resumed), len(sweep.Abandoned))
		for id, reason := range sweep.Abandoned {
			log.Printf("  abandoned %s: %s", id, reason)
		}
	}

	// Profiling lives on its own listener so the public mux never exposes
	// it; the flag keeps it off entirely by default.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		log.Printf("pprof listening on %s", pln.Addr())
		go http.Serve(pln, nil)
	}

	wsys := &web.System{Core: sys, Resolver: resolver, Checklist: taxa.Checklist, Resilient: resilient}

	// Scheduler: this process runs a pool member that drains the admission
	// queue (POST /api/v1/detect turns asynchronous — 202 plus the run URL)
	// and resumes admitted runs a crash interrupted. The directory is this
	// process's alone: a cmd/orchestrator over it fails with storage.ErrLocked.
	if !*noSched {
		backend := sys.SchedulerBackend(resolver, core.RunOptions{Orchestrator: name}, nil)
		sched := &cluster.Scheduler{Name: name, Leases: sys.Leases, Backend: backend, Seed: *seed}
		if err := sched.Start(); err != nil {
			return fmt.Errorf("starting scheduler %s: %w", name, err)
		}
		defer sched.Stop()
		wsys.Scheduler = sched
		log.Printf("scheduler %s started", name)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("FNJV prototype listening on %s (collection: %d records)", ln.Addr(), sys.Records.Len())
	return serve(&http.Server{Handler: web.NewServer(wsys)}, ln)
}

// serve serves srv on ln until SIGINT or SIGTERM, then shuts it down —
// in-flight requests finish — and returns, so run's deferred cleanup runs.
func serve(srv *http.Server, ln net.Listener) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
