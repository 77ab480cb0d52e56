// Command bench runs the repository's hot-path benchmark suites and records
// the results as a machine-readable BENCH_*.json at the repo root — the
// performance trajectory file that lets successive PRs prove they did not
// regress the paths the paper's workload leans on (resolution round trips,
// provenance delta encoding, span capture, storage reads under write load).
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_<pr>.json   # full run; "pr" is stamped from the name
//	go run ./cmd/bench -smoke                 # 1-iteration smoke -> BENCH_smoke.json
//	go run ./cmd/bench -out FILE -benchtime 2s -count 3
//	go run ./cmd/bench -compare BENCH_9.json BENCH_10.json
//
// A full run has no default output file: the committed BENCH_<pr>.json files
// are the trajectory, and a run must say which point it is recording rather
// than overwrite one. `make bench PR=<n>` passes -out BENCH_<n>.json.
//
// -compare diffs two trajectory files and exits non-zero when any benchmark
// tracked by both regressed more than 10% in ns/op or allocs/op — the CI
// gate that keeps successive PRs honest about the hot paths.
//
// The schema ("bench.v1") is documented in EXPERIMENTS.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// suite is one `go test -bench` invocation.
type suite struct {
	Package string // Go package path
	Bench   string // -bench regex
}

// suites lists the hot paths the perf campaign tracks. Keep entries stable
// across PRs: the trajectory is only comparable if names persist.
var suites = []suite{
	{Package: "./internal/taxonomy", Bench: "BenchmarkResolveBatch"},
	{Package: "./internal/workflow", Bench: "BenchmarkQueueDispatch|BenchmarkHistoryAppend|BenchmarkAdmission"},
	{Package: "./internal/provenance", Bench: "BenchmarkDeltaEncode|BenchmarkEdgeRowEncode|BenchmarkStoreStreaming$"},
	{Package: "./internal/storage", Bench: "BenchmarkReadUnderWrite|BenchmarkEncodeRow|BenchmarkEncodeKey"},
	{Package: "./internal/telemetry", Bench: "BenchmarkSpanStamp|BenchmarkHistogramObserve|BenchmarkStartSpanFinish"},
}

// benchResult is one benchmark line, parsed.
type benchResult struct {
	Package     string             `json:"package"`
	Name        string             `json:"name"`
	Procs       int                `json:"procs"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"` // custom b.ReportMetric units
}

type benchFile struct {
	Schema     string            `json:"schema"`
	PR         int               `json:"pr"`
	Generated  time.Time         `json:"generated"`
	Go         string            `json:"go"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Settings   map[string]string `json:"settings"`
	Benchmarks []benchResult     `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file, e.g. BENCH_<pr>.json (required unless -smoke, which defaults to BENCH_smoke.json)")
	smoke := flag.Bool("smoke", false, "1-iteration smoke run: proves every benchmark still executes, records no stable numbers")
	benchtime := flag.String("benchtime", "", "go test -benchtime value (default 1s, or 1x with -smoke)")
	count := flag.Int("count", 3, "go test -count value; the recorded number is the min across repetitions")
	compare := flag.Bool("compare", false, "compare two trajectory files (OLD NEW) instead of running; non-zero exit on a >10% ns/op or allocs/op regression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs exactly two files: OLD NEW")
			os.Exit(2)
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	bt := *benchtime
	if bt == "" {
		if *smoke {
			bt = "1x"
		} else {
			bt = "1s"
		}
	}
	path, err := outPath(*out, *smoke)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	file := benchFile{
		Schema:    "bench.v1",
		PR:        prFromPath(path),
		Generated: time.Now().UTC(),
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Settings:  map[string]string{"benchtime": bt, "count": strconv.Itoa(*count)},
	}

	for _, s := range suites {
		results, err := runSuite(s, bt, *count)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.Package, err)
			os.Exit(1)
		}
		file.Benchmarks = append(file.Benchmarks, results...)
	}

	blob, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: marshal: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("bench: %d benchmarks -> %s\n", len(file.Benchmarks), path)
}

// outPath resolves the output file. Only the smoke run has a default: a full
// run without -out is a usage error, so it can never overwrite a committed
// trajectory point.
func outPath(out string, smoke bool) (string, error) {
	if out == "" && !smoke {
		return "", errors.New("a full run needs -out BENCH_<pr>.json")
	}
	if out == "" {
		return "BENCH_smoke.json", nil
	}
	return out, nil
}

// prFromPath derives the "pr" stamp from a trajectory file name
// (BENCH_<n>.json -> n); any other name, such as the smoke file, stamps 0.
func prFromPath(path string) int {
	num, ok := strings.CutPrefix(strings.TrimSuffix(filepath.Base(path), ".json"), "BENCH_")
	if !ok {
		return 0
	}
	n, _ := strconv.Atoi(num) // 0 for a non-numeric suffix (BENCH_smoke)
	return n
}

// compareFiles diffs two bench.v1 trajectory files. Every benchmark present
// in both is compared on ns/op and allocs/op; a regression beyond the 10%
// budget fails the comparison. Benchmarks that exist only on one side are
// reported but never fail the gate — suites grow and occasionally rename,
// and the gate's job is catching silent slowdowns, not freezing the list.
func compareFiles(oldPath, newPath string) error {
	oldFile, err := loadBenchFile(oldPath)
	if err != nil {
		return err
	}
	newFile, err := loadBenchFile(newPath)
	if err != nil {
		return err
	}

	old := make(map[string]benchResult, len(oldFile.Benchmarks))
	for _, b := range oldFile.Benchmarks {
		old[benchKey(b)] = b
	}

	const budget = 0.10
	var regressions []string
	compared := 0
	fmt.Printf("bench compare: %s (PR %d) -> %s (PR %d), budget +%.0f%%\n",
		oldPath, oldFile.PR, newPath, newFile.PR, budget*100)
	fmt.Printf("%-55s %14s %14s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "Δns", "Δallocs")
	for _, nb := range newFile.Benchmarks {
		ob, ok := old[benchKey(nb)]
		if !ok {
			fmt.Printf("%-55s %14s %14.1f %9s %9s  (new)\n", benchKey(nb), "-", nb.NsPerOp, "-", "-")
			continue
		}
		delete(old, benchKey(nb))
		compared++
		nsDelta := relDelta(ob.NsPerOp, nb.NsPerOp)
		allocDelta := relDelta(ob.AllocsPerOp, nb.AllocsPerOp)
		fmt.Printf("%-55s %14.1f %14.1f %+8.1f%% %+8.1f%%\n",
			benchKey(nb), ob.NsPerOp, nb.NsPerOp, nsDelta*100, allocDelta*100)
		if nsDelta > budget {
			regressions = append(regressions, fmt.Sprintf("%s: ns/op %+.1f%% (%.1f -> %.1f)",
				benchKey(nb), nsDelta*100, ob.NsPerOp, nb.NsPerOp))
		}
		if allocDelta > budget {
			regressions = append(regressions, fmt.Sprintf("%s: allocs/op %+.1f%% (%.1f -> %.1f)",
				benchKey(nb), allocDelta*100, ob.AllocsPerOp, nb.AllocsPerOp))
		}
	}
	for key := range old {
		fmt.Printf("%-55s  (dropped from %s)\n", key, newPath)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmarks in common between %s and %s", oldPath, newPath)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "bench: REGRESSION %s\n", r)
		}
		return fmt.Errorf("%d regression(s) beyond the %.0f%% budget", len(regressions), budget*100)
	}
	fmt.Printf("bench compare: %d benchmarks within budget\n", compared)
	return nil
}

func loadBenchFile(path string) (*benchFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != "bench.v1" {
		return nil, fmt.Errorf("%s: schema %q, want bench.v1", path, f.Schema)
	}
	return &f, nil
}

func benchKey(b benchResult) string {
	return fmt.Sprintf("%s %s-%d", b.Package, b.Name, b.Procs)
}

// relDelta is (new-old)/old, with a zero baseline treated as a regression
// only when the new value is nonzero (0 -> 1 alloc is an infinite-percent
// slide; report it as +100%).
func relDelta(oldV, newV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return 1
	}
	return (newV - oldV) / oldV
}

func runSuite(s suite, benchtime string, count int) ([]benchResult, error) {
	args := []string{
		"test", "-run", "^$",
		"-bench", s.Bench,
		"-benchmem",
		"-benchtime", benchtime,
		"-count", strconv.Itoa(count),
		s.Package,
	}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "bench: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test: %w\n%s", err, buf.String())
	}
	results := minAggregate(parseBenchOutput(s.Package, buf.String()))
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines matched %q\n%s", s.Bench, buf.String())
	}
	return results, nil
}

// minAggregate collapses -count repetitions of the same benchmark into one
// result holding the minimum of each measure. On a shared host the min is
// the least-noise estimator — repetitions only ever add scheduler and cache
// interference on top of the true cost, never subtract it.
func minAggregate(results []benchResult) []benchResult {
	idx := make(map[string]int, len(results))
	var out []benchResult
	for _, r := range results {
		key := benchKey(r)
		i, seen := idx[key]
		if !seen {
			idx[key] = len(out)
			out = append(out, r)
			continue
		}
		if r.NsPerOp < out[i].NsPerOp {
			out[i].NsPerOp = r.NsPerOp
			out[i].Iterations = r.Iterations
		}
		if r.BPerOp < out[i].BPerOp {
			out[i].BPerOp = r.BPerOp
		}
		if r.AllocsPerOp < out[i].AllocsPerOp {
			out[i].AllocsPerOp = r.AllocsPerOp
		}
		for k, v := range r.Metrics {
			if prev, ok := out[i].Metrics[k]; !ok || v < prev {
				if out[i].Metrics == nil {
					out[i].Metrics = map[string]float64{}
				}
				out[i].Metrics[k] = v
			}
		}
	}
	return out
}

// parseBenchOutput extracts benchmark lines of the form
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op   42.5 widgets/s
//
// Custom b.ReportMetric units land in Metrics.
func parseBenchOutput(pkg, out string) []benchResult {
	var results []benchResult
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name, procs := splitProcs(fields[0])
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := benchResult{Package: pkg, Name: name, Procs: procs, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = val
			case "B/op":
				r.BPerOp = val
			case "allocs/op":
				r.AllocsPerOp = val
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = val
			}
		}
		results = append(results, r)
	}
	return results
}

// splitProcs separates the trailing -N GOMAXPROCS suffix from a benchmark
// name ("BenchmarkFoo/bar-8" -> "BenchmarkFoo/bar", 8).
func splitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}
