package main

import (
	"fmt"
	"strconv"
	"strings"
)

// layerData is the raw material of the per-layer metrics for one or more
// traced epochs: totals over the windows (divided by runs at the end) and
// pooled samples (reported as medians).
type layerData struct {
	runs    int
	sums    map[string]float64
	samples map[string][]float64
	spans   []span
}

func newLayerData() *layerData {
	return &layerData{sums: map[string]float64{}, samples: map[string][]float64{}}
}

func (a *layerData) merge(b *layerData) {
	a.runs += b.runs
	for k, v := range b.sums {
		a.sums[k] += v
	}
	for k, v := range b.samples {
		a.samples[k] = append(a.samples[k], v...)
	}
	a.spans = append(a.spans, b.spans...)
}

// counters is one reading of the counters the program exposes.
type counters struct {
	attempts, hits, misses, degraded int64
	walAll, walMeta                  int64
	shardOps, shardErrs              float64
	claims, lost, ticks              float64
}

func readCounters(st *stack) (counters, error) {
	var c counters
	if st.client != nil {
		c.attempts = st.client.Attempts()
		c.hits, c.misses = st.resilient.Cache().Stats()
		c.degraded = st.resilient.Degraded()
	}
	if err := st.sys.DB.Sync(); err != nil {
		return c, err
	}
	var err error
	if c.walAll, err = dirSize(st.dir, "wal.log"); err != nil {
		return c, err
	}
	c.walMeta = st.sys.DB.WALSize()
	if st.sys.Cluster != nil {
		for name, v := range st.sys.Cluster.Counters() {
			switch {
			case strings.HasSuffix(name, ".ops"):
				c.shardOps += v
			case strings.HasSuffix(name, ".errors"):
				c.shardErrs += v
			}
		}
	} else {
		// Unsharded, the one database holds everything the meta database
		// holds when sharded: only the sharded layout can tell them apart.
		c.walMeta = 0
	}
	for _, s := range st.scheds {
		sc := s.Counters()
		c.claims += sc["scheduler.claims"]
		c.lost += sc["scheduler.lost"]
		c.ticks += sc["scheduler.ticks"]
	}
	return c, nil
}

// layerProbe brackets one traced window.
type layerProbe struct {
	st     *stack
	rec    *recorder
	mark   int // spans and writers recorded before the window
	wmark  int
	before counters
	after  counters
}

func startLayerProbe(st *stack, rec *recorder) (*layerProbe, error) {
	mark, wmark := rec.marks()
	before, err := readCounters(st)
	return &layerProbe{st: st, rec: rec, mark: mark, wmark: wmark, before: before}, err
}

// stop reads the counters at the end of the window, before anything else
// touches the system.
func (p *layerProbe) stop() (err error) {
	p.after, err = readCounters(p.st)
	return err
}

// finish folds the window's decorator spans, the spans and history the
// program persisted for each run, and the counter deltas into layerData.
func (p *layerProbe) finish(d *driver, dets []detection, scanMS float64) (*layerData, error) {
	all, writers := p.rec.snapshot()
	spans, writers := all[p.mark:], writers[p.wmark:]
	ld := newLayerData()
	ld.runs = len(dets)
	ld.spans = spans
	ld.samples["web.runs_scan_ms"] = []float64{scanMS}

	// Decorator spans: totals and samples per call site, and the resolver
	// and emit intervals of each run for the workflow fold.
	children := map[string][][2]int64{}
	var opMS [opCount]float64
	var opCalls [opCount]float64
	names := 0.0
	for _, s := range spans {
		dur := float64(s.end-s.start) / 1e6
		opMS[s.op] += dur
		opCalls[s.op]++
		switch s.op {
		case opResolve:
			names += float64(s.n)
			fallthrough
		case opEmit:
			if s.run != nil {
				children[s.run.id] = append(children[s.run.id], [2]int64{s.start, s.end})
			}
		case opClose:
			ld.samples["provenance.close_ms_p50"] = append(ld.samples["provenance.close_ms_p50"], dur)
		case opSnapshot:
			ld.samples["provenance.snapshot_us_p50"] = append(ld.samples["provenance.snapshot_us_p50"], dur*1000)
		case opRun, opRunsPage, opNodesPage, opEdgesPage, opGraph, opQualityOfProcess:
			key := "provenance." + strings.ReplaceAll(opInfo[s.op].name, "-", "_") + "_ms_p50"
			ld.samples[key] = append(ld.samples[key], dur)
		case opQuery:
			ld.samples["fnjv.query_ms_p50"] = append(ld.samples["fnjv.query_ms_p50"], dur)
		case opSpansPage:
			ld.samples["telemetry.spans_page_ms_p50"] = append(ld.samples["telemetry.spans_page_ms_p50"], dur)
		}
	}
	ld.sums["taxonomy.resolve_calls"] = opCalls[opResolve]
	ld.sums["taxonomy.resolve_names"] = names
	ld.sums["taxonomy.resolve_busy_ms"] = opMS[opResolve]
	ld.sums["provenance.emit_calls"] = opCalls[opEmit]
	ld.sums["provenance.emit_busy_ms"] = opMS[opEmit]
	ld.sums["telemetry.append_ms"] = opMS[opAppend]
	ld.sums["fnjv.distinct_ms"] = opMS[opDistinct]
	ld.sums["fnjv.scan_ms"] = opMS[opScan]
	for _, m := range writers {
		ld.sums["provenance.blocked_emits"] += float64(m.BlockedEmits)
		ld.sums["provenance.batches"] += float64(m.Batches)
		ld.sums["provenance.flushed"] += float64(m.Flushed)
		ld.sums["provenance.flush_ms"] += ms(m.FlushTotal)
	}

	// Per run: what the program itself recorded.
	workflowMS := 0.0
	for _, det := range dets {
		persisted, err := d.runSpans(det.runID)
		if err != nil {
			return nil, err
		}
		ld.sums["telemetry.spans"] += float64(len(persisted))
		foundWorkflow := false
		for _, sp := range persisted {
			if sp.Kind != "engine" {
				continue
			}
			if strings.HasPrefix(sp.Name, "workflow:") {
				foundWorkflow = true
				start, end := sp.Start.UnixNano(), sp.End.UnixNano()
				workflowMS += float64(end-start) / 1e6
				ld.sums["workflow.self_ms"] += float64(selfTime(start, end, children[det.runID])) / 1e6
			}
			if us, err := strconv.ParseInt(sp.Attrs["queue_wait_us"], 10, 64); err == nil {
				ld.sums["workflow.queue_wait_ms"] += float64(us) / 1000
			}
			if us, err := strconv.ParseInt(sp.Attrs["exec_us"], 10, 64); err == nil {
				ld.sums["workflow.exec_ms"] += float64(us) / 1000
			}
		}
		if !foundWorkflow {
			return nil, fmt.Errorf("run %s persisted no workflow span", det.runID)
		}
		history, err := p.st.sys.Provenance.History(det.runID)
		if err != nil {
			return nil, err
		}
		ld.sums["workflow.history_events"] += float64(len(history))

		elapsed := det.elapsed
		if p.st.spec.Schedulers > 0 {
			out, _ := p.st.outcome(det.runID)
			elapsed = out.elapsed
			var run runJSON
			if err := d.getJSON("/api/v1/runs/"+det.runID, &run); err != nil {
				return nil, err
			}
			if run.FinishedAt == nil {
				return nil, fmt.Errorf("run %s has no finished_at", det.runID)
			}
			// The scheduler emits no event at claim time; the run row's
			// started_at, written right after the claim, stands in for it.
			ld.samples["cluster.admission_wait_ms_p50"] = append(ld.samples["cluster.admission_wait_ms_p50"], ms(run.StartedAt.Sub(det.sent)))
			ld.samples["cluster.claim_to_complete_ms_p50"] = append(ld.samples["cluster.claim_to_complete_ms_p50"], ms(run.FinishedAt.Sub(run.StartedAt)))
		} else {
			ld.samples["web.overhead_ms_p50"] = append(ld.samples["web.overhead_ms_p50"], ms(det.latency-det.elapsed))
		}
		ld.sums["core.elapsed_ms"] += ms(elapsed)
	}
	// core's own time is what is left of elapsed_us once every decorated
	// call and the engine's workflow span are taken out; the layers below
	// therefore add up to elapsed_us by construction.
	ld.sums["core.self_ms"] = ld.sums["core.elapsed_ms"] - workflowMS -
		opMS[opDistinct] - opMS[opScan] - opMS[opOpenWriter] - opMS[opClose] - opMS[opQualityOfProcess]

	b, a := p.before, p.after
	ld.sums["taxonomy.upstream_attempts"] = float64(a.attempts - b.attempts)
	ld.sums["taxonomy.cache_hits"] = float64(a.hits - b.hits)
	ld.sums["taxonomy.cache_lookups"] = float64(a.hits - b.hits + a.misses - b.misses)
	ld.sums["taxonomy.degraded"] = float64(a.degraded - b.degraded)
	ld.sums["storage.wal_kb"] = float64(a.walAll-b.walAll) / 1024
	ld.sums["storage.meta_wal_kb"] = float64(a.walMeta-b.walMeta) / 1024
	ld.sums["shard.ops"] = a.shardOps - b.shardOps
	ld.sums["shard.errors"] = a.shardErrs - b.shardErrs
	ld.sums["cluster.claims"] = a.claims - b.claims
	ld.sums["cluster.lost"] = a.lost - b.lost
	ld.sums["cluster.ticks"] = a.ticks - b.ticks
	return ld, nil
}

// perRun maps each per-run metric to the total it is derived from.
var perRun = map[string]string{
	"cluster.claims_per_run":             "cluster.claims",
	"cluster.lost_per_run":               "cluster.lost",
	"workflow.self_ms_per_run":           "workflow.self_ms",
	"workflow.queue_wait_ms_per_run":     "workflow.queue_wait_ms",
	"workflow.exec_ms_per_run":           "workflow.exec_ms",
	"workflow.history_events_per_run":    "workflow.history_events",
	"taxonomy.resolve_calls_per_run":     "taxonomy.resolve_calls",
	"taxonomy.resolve_busy_ms_per_run":   "taxonomy.resolve_busy_ms",
	"taxonomy.upstream_attempts_per_run": "taxonomy.upstream_attempts",
	"taxonomy.degraded_per_run":          "taxonomy.degraded",
	"provenance.emit_calls_per_run":      "provenance.emit_calls",
	"provenance.emit_busy_ms_per_run":    "provenance.emit_busy_ms",
	"provenance.blocked_emits_per_run":   "provenance.blocked_emits",
	"provenance.batches_per_run":         "provenance.batches",
	"provenance.flush_ms_per_run":        "provenance.flush_ms",
	"storage.wal_kb_per_run":             "storage.wal_kb",
	"storage.meta_wal_kb_per_run":        "storage.meta_wal_kb",
	"shard.ops_per_run":                  "shard.ops",
	"shard.errors_per_run":               "shard.errors",
	"telemetry.append_ms_per_run":        "telemetry.append_ms",
	"telemetry.spans_per_run":            "telemetry.spans",
	"fnjv.distinct_ms_per_run":           "fnjv.distinct_ms",
	"fnjv.scan_ms_per_run":               "fnjv.scan_ms",
	"core.self_ms_per_run":               "core.self_ms",
}

// layerMetrics turns the pooled traced epochs into the per-layer metrics.
// untraced and traced are the detect latencies of the two halves of the
// traced pass; reads and lags are the client-side samples of the traced half.
// Medians of fewer than 2*beyond samples, and anything that does not apply to
// the workload, read 0. counts receives each median's sample count.
func layerMetrics(ld *layerData, untraced, traced []float64, reads [readKinds][]float64, lags []float64, counts map[string]int) map[string]float64 {
	out := map[string]float64{}
	p50 := func(name string, samples []float64) {
		counts[name] = len(samples)
		out[name] = median(samples)
	}
	for _, def := range perLayer {
		name := def.Name
		switch {
		case perRun[name] != "":
			out[name] = ratio(ld.sums[perRun[name]], float64(ld.runs))
		case strings.HasSuffix(name, "_p50"):
			p50(name, ld.samples[name])
		}
	}
	for kind, samples := range reads {
		p50("web.get_"+readKindNames[kind]+"_ms_p50", samples)
	}
	out["web.runs_scan_ms"] = mean(ld.samples["web.runs_scan_ms"])
	out["cluster.ticks"] = ld.sums["cluster.ticks"]
	out["taxonomy.cache_hit_ratio"] = ratio(ld.sums["taxonomy.cache_hits"], ld.sums["taxonomy.cache_lookups"])
	out["taxonomy.batch_size_mean"] = ratio(ld.sums["taxonomy.resolve_names"], ld.sums["taxonomy.resolve_calls"])
	out["provenance.avg_batch"] = ratio(ld.sums["provenance.flushed"], ld.sums["provenance.batches"])
	out["core.unattributed_share"] = ratio(ld.sums["core.self_ms"], ld.sums["core.elapsed_ms"])
	out["bench.trace_overhead_pct"] = 100 * ratio(median(traced)-median(untraced), median(untraced))
	out["bench.generator_lag_ms_p95"] = 0 // closed loops have no schedule to be late on
	if len(lags) > 0 {
		counts["bench.generator_lag_ms_p95"] = len(lags)
		out["bench.generator_lag_ms_p95"], _ = percentile(lags, 0.95, 0)
	}
	return out
}

// outcome is what the scheduler pool reported for an asynchronous run.
func (st *stack) outcome(runID string) (asyncOutcome, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	out, ok := st.outcomes[runID]
	return out, ok
}
