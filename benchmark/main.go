// Command benchmark is the repository's end-to-end performance ledger: it
// boots the real stack in one process, drives detection requests and reads
// over /api/v1, checks the outputs, and reports the end-to-end metrics (timed
// pass) or the per-layer attribution (traced pass) declared in
// ../BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// defs is the metric list the pass reports.
func (p *passResult) defs() []metricDef {
	if p.traced {
		return perLayer
	}
	return endToEnd
}

// print writes the pass as a table: every metric by name with its value,
// unit, sample count where it is a percentile, and regression bound where it
// has one.
func (p *passResult) print() {
	defs, kind := p.defs(), "timed"
	if p.traced {
		kind = "traced"
	}
	fmt.Printf("%s (%s pass, %d operations, %d failed)\n", p.workload, kind, p.attempted, p.failed)
	if p.failure != nil {
		fmt.Printf("  FAILED: %v\n", p.failure)
		return
	}
	if len(p.epochs) > 0 {
		fmt.Printf("  median of %d epochs:\n", len(p.epochs))
	}
	for _, def := range defs {
		line := fmt.Sprintf("  %-40s %14.4f %-7s", def.Name, p.metrics[def.Name], def.Unit)
		if n, ok := p.counts[def.Name]; ok {
			line += fmt.Sprintf(" n=%-6d", n)
		} else {
			line += fmt.Sprintf(" %-8s", "")
		}
		if def.Bound > 0 {
			line += fmt.Sprintf(" %s is better, may worsen %.0f%%", def.Better, 100*def.Bound)
		}
		fmt.Println(line)
	}
	for i, m := range p.epochs {
		line := fmt.Sprintf("  epoch %d:", i)
		for _, def := range defs {
			line += fmt.Sprintf(" %s=%.4g", def.Name, m[def.Name])
		}
		for _, phase := range []string{"speed.setup", "speed.window"} {
			line += fmt.Sprintf(" %s=%.3f", phase, m[phase])
		}
		fmt.Println(line)
	}
}

// printJSON writes the result line the driver reads.
func (p *passResult) printJSON() error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{p.correct(), p.attempted, p.failed, map[string]value{}}
	for _, def := range p.defs() {
		out.Metrics[def.Name] = value{p.metrics[def.Name], def.Unit}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(blob))
	return err
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	check    bool
	epoch    int
	outDir   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four, timed then traced)")
	flag.Int64Var(&o.seed, "seed", 2014, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long one pass measures")
	flag.IntVar(&trace, "trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "one small epoch per pass: proves the harness, measures nothing")
	flag.BoolVar(&o.check, "check", false, "self-check: run every timed pass twice and compare within the bounds")
	flag.IntVar(&o.epoch, "epoch", -1, "run only this epoch of the workload's timed pass and print its report (what epochs side by side run)")
	flag.StringVar(&o.outDir, "out", "out", "directory for data directories and trace files")
	flag.Parse()
	o.traced = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs of this machine", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	specs := append([]workloadSpec(nil), workloads...)
	if o.workload != "" {
		spec, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []workloadSpec{spec}
	}
	if o.smoke {
		for i := range specs {
			specs[i] = specs[i].smoke()
		}
	}
	runPass := func(spec workloadSpec, traced bool) (*passResult, error) {
		if traced {
			return tracedPass(spec, o.seed, o.seconds, o.smoke, o.outDir)
		}
		return timedPass(spec, o.seed, o.seconds, o.smoke, o.outDir)
	}
	switch {
	case o.check:
		return selfCheck(specs, o.seed, o.seconds, o.smoke, o.outDir)
	case o.epoch >= 0 && o.workload != "":
		turn, err := openTurns(o.outDir)
		if err != nil {
			return err
		}
		defer turn.close()
		rep, err := timedEpoch(specs[0], o.seed, o.epoch, minBeyond, o.outDir, turn)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	case o.workload != "":
		// The driver's form: one pass, the result as the last line.
		pass, err := runPass(specs[0], o.traced)
		if err != nil {
			return err
		}
		pass.print()
		if err := pass.printJSON(); err != nil {
			return err
		}
		if !pass.correct() {
			return fmt.Errorf("%s: outputs incorrect: %v", pass.workload, pass.failure)
		}
		return nil
	}
	var failed error
	for _, spec := range specs {
		for _, traced := range []bool{false, true} {
			pass, err := runPass(spec, traced)
			if err != nil {
				return err
			}
			pass.print()
			if !pass.correct() {
				failed = errors.Join(failed, fmt.Errorf("%s: outputs incorrect: %v", pass.workload, pass.failure))
			}
		}
	}
	return failed
}

// maxGeneratorLagMS is the p95 lateness beyond which an open loop was not
// sending on schedule and its latencies measure the generator. The client
// shares two CPUs with the server, and Go lets a goroutine keep a CPU for
// 10 ms before it preempts it: a generator that late is still just queueing.
const maxGeneratorLagMS = 10

// selfCheck runs every timed pass twice with the same seed. A metric whose
// second reading is worse than the first by more than its bound is
// regressed — the benchmark cannot tell a commit from itself — and one that
// differs by more than its bound in the good direction is unresolved: the
// spread is wider than the regression it is meant to catch. A workload whose
// open-loop generator ran late is refused: its latencies measure the
// generator.
func selfCheck(specs []workloadSpec, seed int64, seconds float64, smoke bool, outDir string) error {
	var findings []string
workloads:
	for _, spec := range specs {
		var passes [2]*passResult
		for i := range passes {
			pass, err := timedPass(spec, seed, seconds, smoke, outDir)
			if err != nil {
				return err
			}
			pass.print()
			if !pass.correct() {
				return fmt.Errorf("%s: outputs incorrect: %v", spec.Name, pass.failure)
			}
			if pass.lagP95 > maxGeneratorLagMS {
				findings = append(findings, fmt.Sprintf("refused: %s: generator ran %.2f ms late at p95, limit %d ms",
					spec.Name, pass.lagP95, maxGeneratorLagMS))
				continue workloads
			}
			passes[i] = pass
		}
		for _, def := range endToEnd {
			a, b := passes[0].metrics[def.Name], passes[1].metrics[def.Name]
			worse := (b - a) / a
			if def.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			switch {
			case worse > def.Bound:
				verdict = "regressed"
			case -worse > def.Bound:
				verdict = "unresolved"
			default:
				continue
			}
			findings = append(findings, fmt.Sprintf("%s: %s %s: %.4f then %.4f %s (%+.1f%% worse, bound %.0f%%)",
				verdict, spec.Name, def.Name, a, b, def.Unit, 100*worse, 100*def.Bound))
		}
	}
	for _, line := range findings {
		fmt.Println(line)
	}
	if len(findings) > 0 {
		return fmt.Errorf("self-check: %d findings between two runs of the same commit and seed", len(findings))
	}
	fmt.Println("self-check passed: two runs of the same commit and seed agree within every bound")
	return nil
}
