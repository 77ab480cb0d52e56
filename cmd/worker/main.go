// Command worker is an out-of-process task executor: it attaches to a
// running orchestrator's cluster gateway (cmd/fnjvweb serves one under
// /cluster/v1/) and pulls activity tasks from whatever detection runs the
// orchestrator has live. Each task is one attempt against this process's own
// service registry and resolver; the result folds into the run's history
// through the orchestrator, which checks the outputs and decides on retries
// exactly as for its own pool, so the provenance record is identical
// wherever an element executed.
//
// Usage:
//
//	worker -gateway http://localhost:8080 [-name w1] [-authority URL] [-species 1929] [-seed 2014]
//
// With -authority the worker resolves names against a remote colserver;
// otherwise it generates the same deterministic synthetic checklist the
// orchestrator seeds (same -species/-seed), standing in for a worker host
// with its own copy of the reference data.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/taxonomy"
	"repro/internal/workflow"
)

func main() {
	var (
		gateway   = flag.String("gateway", "http://localhost:8080", "orchestrator gateway base URL")
		name      = flag.String("name", "", "worker name (default: worker-<pid>)")
		authority = flag.String("authority", "", "URL of a colserver (empty = in-process synthetic checklist)")
		species   = flag.Int("species", 1929, "distinct species names of the synthetic checklist")
		seed      = flag.Int64("seed", 2014, "PRNG seed of the synthetic checklist")
	)
	flag.Parse()
	log.SetFlags(0)
	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
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

	reg := workflow.NewRegistry()
	core.RegisterDetectionServicesInto(reg, resolver)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &cluster.Worker{Gateway: *gateway, Name: *name, Registry: reg}
	log.Printf("worker %q pulling from %s", *name, *gateway)
	if err := w.Run(ctx); err != nil {
		log.Fatal(err)
	}
	log.Printf("worker %q done: %d tasks", *name, w.Tasks.Load())
}
