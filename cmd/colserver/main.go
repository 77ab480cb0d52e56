// Command colserver runs the simulated Catalogue-of-Life authority as an
// HTTP service, for driving the curation pipeline over the network exactly
// as the paper's prototype did.
//
// Usage:
//
//	colserver [-addr :9090] [-species 1929] [-outdated 0.0695] [-provisional 0.05]
//	          [-availability 0.9] [-fuzzy 2] [-seed 2014] [-load FILE] [-dump FILE] [-pprof ADDR]
//
// The server logs the address it listens on, so -addr 127.0.0.1:0 picks a
// free port; SIGINT or SIGTERM stops it with exit status 0.
//
// Endpoints:
//
//	GET /resolve?name=Genus+epithet
//	GET /healthz
//	GET /stats
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only on -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/taxonomy"
)

func main() {
	var (
		addr         = flag.String("addr", ":9090", "listen address")
		species      = flag.Int("species", 1929, "historical species names in the checklist")
		outdated     = flag.Float64("outdated", 134.0/1929.0, "fraction of names that are outdated")
		provisional  = flag.Float64("provisional", 0.05, "fraction of outdated names that are provisional")
		availability = flag.Float64("availability", 0.9, "probability a request is served (paper: 0.9)")
		fuzzy        = flag.Int("fuzzy", 0, "fuzzy-match budget in edits (0 = exact only)")
		seed         = flag.Int64("seed", 2014, "checklist PRNG seed")
		load         = flag.String("load", "", "load the checklist from a JSON dump instead of generating")
		dump         = flag.String("dump", "", "write the generated checklist to a JSON dump and exit")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()
	log.SetFlags(0)

	var checklist *taxonomy.Checklist
	var outdatedCount int
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			log.Fatal(err)
		}
		checklist, err = taxonomy.ReadJSON(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		outdatedCount = checklist.Len() - checklist.AcceptedCount()
	} else {
		gen, err := taxonomy.Generate(taxonomy.GeneratorSpec{
			Species:             *species,
			OutdatedFraction:    *outdated,
			ProvisionalFraction: *provisional,
			Seed:                *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		checklist = gen.Checklist
		outdatedCount = len(gen.OutdatedNames)
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		if err := checklist.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("checklist dumped to %s (%d name records)", *dump, checklist.Len())
		return
	}
	opts := []taxonomy.ServiceOption{
		taxonomy.WithAvailability(*availability, *seed+1),
	}
	if *fuzzy > 0 {
		opts = append(opts, taxonomy.WithFuzzy(*fuzzy))
	}
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("pprof listening on %s", pln.Addr())
		go http.Serve(pln, nil)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("catalogue of life simulator: %d name records (%d non-accepted), availability %.2f, listening on %s",
		checklist.Len(), outdatedCount, *availability, ln.Addr())
	if err := serve(&http.Server{Handler: taxonomy.NewService(checklist, opts...)}, ln); err != nil {
		log.Fatal(err)
	}
}

// serve serves srv on ln until SIGINT or SIGTERM, then shuts it down —
// in-flight requests finish — and returns.
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
