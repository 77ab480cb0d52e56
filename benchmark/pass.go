package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// passResult is one pass (timed or traced) of one workload.
type passResult struct {
	workload  string
	traced    bool
	metrics   map[string]float64
	counts    map[string]int       // samples behind each percentile (per epoch on the timed pass)
	epochs    []map[string]float64 // the timed pass's end-to-end metrics, epoch by epoch
	attempted int
	failed    int
	failure   error
	lagP95    float64 // open loops: how late the generator ran, in ms
}

func (p *passResult) correct() bool { return p.failure == nil && p.failed == 0 }

// tally adds an epoch's operations to the pass and reports whether the pass
// is still correct.
func (p *passResult) tally(attempted, failed int, failure error) bool {
	p.attempted += attempted
	p.failed += failed
	if p.failure == nil {
		p.failure = failure
	}
	return p.correct()
}

// epochSeed derives the inputs of the e-th epoch from the run's seed.
func epochSeed(seed int64, e int) int64 { return seed + int64(e)*7919 }

func epochDir(outDir, workload string, e int) string {
	return filepath.Join(outDir, fmt.Sprintf("data-%s-%d-%d", workload, os.Getpid(), e))
}

// epochReport is what one epoch of the timed pass measured. It crosses a
// process boundary when epochs run side by side.
type epochReport struct {
	Metrics   map[string]float64 `json:"metrics"`
	Counts    map[string]int     `json:"counts"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failure   string             `json:"failure,omitempty"`
	LagP95    float64            `json:"lag_p95_ms"`
}

// turns orders the phases of epochs that run side by side in processes of
// their own, through flock(2) on a file in the scratch directory: the epochs
// set up and wait out their windows together, but the quiescent reads and the
// reopen are the CPU's work and are timed, so each epoch does those with the
// machine to itself — one epoch at a time, and only once no window is open.
// The zero turns is an epoch alone in its process: nothing to wait for.
type turns struct {
	windows *os.File // shared by the epochs inside their windows, held exclusively by the one past its window
}

func openTurns(dir string) (*turns, error) {
	windows, err := os.OpenFile(filepath.Join(dir, "windows.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &turns{windows}, nil
}

func (t *turns) close() { t.windows.Close() }

func flock(f *os.File, how int) {
	if f == nil {
		return
	}
	for {
		err := syscall.Flock(int(f.Fd()), how)
		if err == nil {
			return
		}
		if err != syscall.EINTR {
			panic(fmt.Sprintf("flock %s: %v", f.Name(), err))
		}
	}
}

// openWindow joins the open windows.
func (t *turns) openWindow() { flock(t.windows, syscall.LOCK_SH) }

// closeWindow waits until every window has closed, then takes the machine.
func (t *turns) closeWindow() {
	flock(t.windows, syscall.LOCK_UN)
	flock(t.windows, syscall.LOCK_EX)
}

// end hands the machine on.
func (t *turns) end() { flock(t.windows, syscall.LOCK_UN) }

// timedEpoch runs the e-th epoch of the timed pass in this process. beyond is
// how many samples must lie beyond each percentile.
func timedEpoch(spec workloadSpec, seed int64, e, beyond int, outDir string, turn *turns) (*epochReport, error) {
	res, err := runEpoch(spec, epochSeed(seed, e), epochDir(outDir, spec.Name, e), nil, turn)
	if err != nil {
		return nil, err
	}
	rep := &epochReport{Counts: map[string]int{}, Attempted: res.attempted, Failed: res.failed}
	if res.failure != nil {
		rep.Failure = res.failure.Error()
		return rep, nil // nothing to measure on a broken system
	}
	if len(res.lags) > 0 {
		rep.LagP95, _ = percentile(res.lags, 0.95, 0)
	}
	rep.Metrics, err = res.endToEnd(beyond, rep.Counts)
	return rep, err
}

// sideBySide runs n epochs of the timed pass starting at the e-th at the same
// time, each in a process of its own so that the memory counters stay one
// epoch's, and returns their reports.
func sideBySide(spec workloadSpec, seed int64, e, n int, outDir string) ([]*epochReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	reports := make([]*epochReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := exec.Command(self, "-workload", spec.Name, "-seed", strconv.FormatInt(seed, 10),
				"-epoch", strconv.Itoa(e+i), "-out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err == nil {
				reports[i] = &epochReport{}
				err = json.Unmarshal(bytes.TrimSpace(out), reports[i])
			}
			if err != nil {
				errs[i] = fmt.Errorf("epoch %d in its own process: %w", e+i, err)
			}
		}()
	}
	wg.Wait()
	return reports, errors.Join(errs...)
}

// timedPass runs epochs of one workload for seconds: another round of epochs
// starts only while the longest round so far would still end inside the
// budget, and one always runs. Every epoch yields every end-to-end metric;
// the pass reports the median over its epochs, so a disturbance of the
// machine has to cover half the run to move a reading. Epochs that share
// this process are preceded by an unmeasured one: the first epoch of a
// process pays for growing the heap and would otherwise weigh most in the
// shortest runs. smoke stops after the first epoch and waives the sample
// floors.
func timedPass(spec workloadSpec, seed int64, seconds float64, smoke bool, outDir string) (*passResult, error) {
	pass := &passResult{workload: spec.Name, metrics: map[string]float64{}, counts: map[string]int{}}
	budget := time.Duration(seconds * float64(time.Second))
	beyond, side := minBeyond, max(spec.SideBySide, 1)
	if smoke {
		beyond, side = 0, 1
	}
	var longest time.Duration
	began := time.Now()
	if side == 1 && !smoke {
		res, err := runEpoch(spec, epochSeed(seed, -1), epochDir(outDir, spec.Name, -1), nil, &turns{})
		if err != nil {
			return nil, fmt.Errorf("%s unmeasured epoch: %w", spec.Name, err)
		}
		if !pass.tally(res.attempted, res.failed, res.failure) {
			return pass, nil
		}
	}
	for e := 0; ; e += side {
		t0 := time.Now()
		reports := make([]*epochReport, 1)
		var err error
		if side > 1 {
			reports, err = sideBySide(spec, seed, e, side, outDir)
		} else {
			reports[0], err = timedEpoch(spec, seed, e, beyond, outDir, &turns{})
		}
		if err != nil {
			return nil, fmt.Errorf("%s epoch %d: %w", spec.Name, e, err)
		}
		for _, rep := range reports {
			var failure error
			if rep.Failure != "" {
				failure = errors.New(rep.Failure)
			}
			if !pass.tally(rep.Attempted, rep.Failed, failure) {
				return pass, nil // report the failure rather than measure a broken system
			}
			pass.epochs = append(pass.epochs, rep.Metrics)
			pass.lagP95 = max(pass.lagP95, rep.LagP95)
			pass.counts = rep.Counts
		}
		longest = max(longest, time.Since(t0))
		if smoke || time.Since(began)+longest > budget {
			break
		}
	}
	for _, def := range endToEnd {
		values := make([]float64, len(pass.epochs))
		for i, m := range pass.epochs {
			values[i] = m[def.Name]
		}
		pass.metrics[def.Name] = median(values)
	}
	return pass, nil
}

// tracedPass runs pairs of half-size epochs over the same inputs for seconds,
// the first of each pair with the decorators off and the second with them on,
// so that it can state what tracing cost. The per-layer metrics come from the
// traced epochs pooled; their spans are written to trace-<workload>.json.
func tracedPass(spec workloadSpec, seed int64, seconds float64, smoke bool, outDir string) (*passResult, error) {
	spec = spec.halved()
	pass := &passResult{workload: spec.Name, traced: true, counts: map[string]int{}}
	budget := time.Duration(seconds * float64(time.Second))
	var (
		untraced, traced, lags []float64
		reads                  [readKinds][]float64
		layers                 = newLayerData()
		longest                time.Duration
	)
	began := time.Now()
	for pair := 0; ; pair++ {
		t0 := time.Now()
		for _, rec := range []*recorder{nil, newRecorder()} {
			res, err := runEpoch(spec, epochSeed(seed, pair), epochDir(outDir, spec.Name, pair), rec, &turns{})
			if err != nil {
				return nil, fmt.Errorf("%s pair %d: %w", spec.Name, pair, err)
			}
			if !pass.tally(res.attempted, res.failed, res.failure) {
				return pass, nil
			}
			if rec == nil {
				untraced = append(untraced, res.detect...)
				continue
			}
			traced = append(traced, res.detect...)
			lags = append(lags, res.lags...)
			for kind, samples := range res.reads {
				reads[kind] = append(reads[kind], samples...)
			}
			layers.merge(res.layer)
		}
		longest = max(longest, time.Since(t0))
		if smoke || time.Since(began)+longest > budget {
			break
		}
	}
	pass.metrics = layerMetrics(layers, untraced, traced, reads, lags, pass.counts)
	pass.lagP95 = pass.metrics["bench.generator_lag_ms_p95"]
	return pass, writeTrace(filepath.Join(outDir, "trace-"+spec.Name+".json"), spec.Name, layers.spans)
}
