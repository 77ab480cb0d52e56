// Command orchestrator runs a pool of scheduler members over a data
// directory: each member drains the admission queue (runs POSTed to
// /api/v1/detect land there) and executes the admitted runs, resuming by
// history replay any admitted run a crash interrupted.
//
// Usage:
//
//	orchestrator -data ./fnjv-data [-name orch] [-peers 3]
//	             [-authority URL] [-species 1929] [-seed 2014]
//
// The directory is locked while the orchestrator has it open: it cannot be
// shared with a running fnjvweb (or another orchestrator), and opening one
// that is in use fails with storage.ErrLocked. Run it over a directory no
// process serves — a stopped front end's backlog, a soak test. -peers N > 1
// runs N named members in this process (name-1 … name-N) over one System,
// so up to N admitted runs execute at once; each member executes its
// admissions one at a time. With -authority names resolve against a remote
// colserver; otherwise the deterministic synthetic checklist (same
// -species/-seed as the front end) stands in for the authority.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

func main() {
	var (
		data      = flag.String("data", "./fnjv-data", "database directory (locked while open: not one a running fnjvweb serves)")
		name      = flag.String("name", "", "member name, or prefix with -peers > 1 (default: orch-<pid>)")
		peers     = flag.Int("peers", 1, "scheduler members in this process: how many admitted runs execute at once")
		authority = flag.String("authority", "", "URL of a colserver (empty = in-process synthetic checklist)")
		species   = flag.Int("species", 1929, "distinct species names of the synthetic checklist")
		seed      = flag.Int64("seed", 2014, "PRNG seed of the synthetic checklist")
	)
	flag.Parse()
	log.SetFlags(0)
	if *name == "" {
		*name = fmt.Sprintf("orch-%d", os.Getpid())
	}
	if *peers < 1 {
		log.Fatalf("-peers must be at least 1, got %d", *peers)
	}

	var resolver taxonomy.Resolver
	if *authority != "" {
		client := taxonomy.NewClient(*authority)
		client.Retries = 6
		resolver = client
	} else {
		taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
			Species:             *species,
			OutdatedFraction:    134.0 / 1929.0,
			ProvisionalFraction: 0.05,
			Seed:                *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		resolver = taxa.Checklist
	}

	sys, err := core.Open(*data, core.Options{Sync: storage.SyncOnClose})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	pool := make([]*cluster.Scheduler, 0, *peers)
	for i := 1; i <= *peers; i++ {
		member := *name
		if *peers > 1 {
			member = fmt.Sprintf("%s-%d", *name, i)
		}
		backend := sys.SchedulerBackend(resolver, core.RunOptions{Orchestrator: member},
			func(out *core.DetectionOutcome) {
				log.Printf("run %s finished: %d outdated, %d updates, %v",
					out.RunID, out.Outdated, out.UpdatesCreated, out.Elapsed)
			})
		sched := &cluster.Scheduler{
			Name: member, Leases: sys.Leases, Backend: backend,
			Seed: *seed + int64(i),
			OnEvent: func(ev cluster.SchedulerEvent) {
				switch ev.Kind {
				case "complete", "interrupted":
					log.Printf("%s: %s %s", ev.Orchestrator, ev.Kind, ev.Run)
				case "error":
					log.Printf("%s: run %s failed: %v", ev.Orchestrator, ev.Run, ev.Err)
				}
			},
		}
		if err := sched.Start(); err != nil {
			log.Fatalf("starting scheduler %s: %v", member, err)
		}
		pool = append(pool, sched)
		log.Printf("scheduler %s started (data %s)", member, *data)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("shutting down %d member(s)", len(pool))
	for _, sched := range pool {
		sched.Stop()
		counters := sched.Counters()
		keys := make([]string, 0, len(counters))
		for k := range counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			log.Printf("  %s %s = %.0f", sched.Name, k, counters[k])
		}
	}
}
