// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// paper-vs-measured numbers).
//
// Usage:
//
//	experiments [-run all|tableI|tableII|figure2|figure3|listing1|qualityIVC|timing|stage1|stage2|evolution|retrieval|archive|chaos|load] [-records N] [-species N] [-seed N] [-parallel N] [-short]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

func main() {
	var (
		run     = flag.String("run", "all", "experiment to run (all, tableI, tableII, figure2, figure3, listing1, qualityIVC, timing, stage1, stage2, evolution, retrieval, archive, chaos, load)")
		records = flag.Int("records", 11898, "collection size (paper: 11898)")
		species = flag.Int("species", 1929, "distinct species names (paper: 1929)")
		seed    = flag.Int64("seed", 2014, "master PRNG seed")
		par     = flag.Int("parallel", 0, "workflow engine worker-pool size (0 or 1 = one worker, sequential)")
		short   = flag.Bool("short", false, "smaller trial counts and substrates (CI smoke)")
	)
	flag.Parse()
	log.SetFlags(0)

	env := newEnvironment(*records, *species, *seed, *par)
	env.short = *short
	all := map[string]func(*environment) error{
		"tableI":     runTableI,
		"tableII":    runTableII,
		"figure2":    runFigure2,
		"figure3":    runFigure3,
		"listing1":   runListing1,
		"qualityIVC": runQualityIVC,
		"timing":     runTiming,
		"stage1":     runStage1,
		"stage2":     runStage2,
		"evolution":  runEvolution,
		"retrieval":  runRetrieval,
		"archive":    runArchive,
		"chaos":      runChaos,
		"load":       runLoad,
	}
	order := []string{"tableI", "tableII", "listing1", "stage1", "figure2", "figure3", "qualityIVC", "timing", "stage2", "evolution", "retrieval", "archive", "chaos", "load"}

	if *run == "all" {
		for _, name := range order {
			banner(name)
			if err := all[name](env); err != nil {
				log.Fatalf("experiment %s: %v", name, err)
			}
		}
		return
	}
	fn, ok := all[*run]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of: all %s\n", *run, strings.Join(order, " "))
		os.Exit(2)
	}
	banner(*run)
	if err := fn(env); err != nil {
		log.Fatalf("experiment %s: %v", *run, err)
	}
}

func banner(name string) {
	fmt.Printf("\n============================================================\n")
	fmt.Printf("EXPERIMENT %s\n", name)
	fmt.Printf("============================================================\n")
}
