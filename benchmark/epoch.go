package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// epochResult is what one epoch measured: one fresh data directory, one
// set-up, one window of a fixed number of operations, one reopen.
type epochResult struct {
	setup  time.Duration
	window time.Duration
	reopen time.Duration // scaled to the reference speed

	runs       int // detections completed in the window
	detect     []float64
	reads      [readKinds][]float64
	mallocs    uint64
	heapGrowth int64
	diskGrowth int64
	lags       []float64 // open loop: how late each request left, in ms

	// What to multiply a time measured in each phase by to scale it to the
	// reference speed (see speed.go); 1 for a phase reported as measured.
	setupSpeed, windowSpeed float64
	openLoop                bool // the window's length was the schedule's, not the program's
	batches                 []readBatch

	attempted int
	failed    int
	failure   error // first failed operation or verification

	layer *layerData // traced epochs only
}

// readBatch is a stretch of reads of the mix, in milliseconds as measured, and
// the machine's speed among them.
type readBatch struct {
	samples []float64
	speed   float64
}

// endToEnd derives the epoch's end-to-end metrics. A percentile needs beyond
// samples above it; counts receives the samples behind each.
func (res *epochResult) endToEnd(beyond int, counts map[string]int) (map[string]float64, error) {
	runs := float64(res.runs)
	m := map[string]float64{
		"setup_s":           res.setup.Seconds() * res.setupSpeed,
		"detect_runs_per_s": runs / res.window.Seconds(),
		"allocs_per_run":    float64(res.mallocs) / runs,
		"heap_kb_per_run":   float64(res.heapGrowth) / 1024 / runs,
		"disk_kb_per_run":   float64(res.diskGrowth) / 1024 / runs,
		"reopen_s":          res.reopen.Seconds(),
		"speed.setup":       res.setupSpeed,
		"speed.window":      res.windowSpeed,
	}
	if !res.openLoop {
		m["detect_runs_per_s"] /= res.windowSpeed
	}
	for _, q := range []struct {
		name    string
		batches []readBatch
		p       float64
	}{
		{"detect_p50_ms", []readBatch{{res.detect, res.windowSpeed}}, 0.50},
		{"detect_p90_ms", []readBatch{{res.detect, res.windowSpeed}}, 0.90},
		{"read_p50_ms", res.batches, 0.50}, {"read_p95_ms", res.batches, 0.95},
	} {
		// What disturbs a quiescent system's reads for a few hundred
		// milliseconds — a neighbour on the host, a CPU woken from idle — only
		// ever slows them: of the batches, the epoch reports the lower quartile.
		var readings []float64
		for _, b := range q.batches {
			v, err := percentile(b.samples, q.p, beyond)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.name, err)
			}
			readings = append(readings, v*b.speed)
			counts[q.name] = len(b.samples)
		}
		m[q.name] = lowerQuartile(readings)
	}
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// dueTime is when operation i of an open loop at rate per second is due.
func dueTime(start time.Time, rate, i int) time.Time {
	return start.Add(time.Duration(i) * time.Second / time.Duration(rate))
}

// openLoop sends n operations on a fixed schedule of rate per second from
// start, regardless of how long each takes: independent users do not wait for
// each other, so every operation runs on its own goroutine, is never sent
// before it is due, and is handed its due time, which is what latency is
// measured from. Only when inFlight operations are outstanding does the
// generator wait, and a slow operation then makes its successors late.
// openLoop returns, once every operation has ended, how late each was sent.
func openLoop(start time.Time, rate, n, inFlight int, op func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, n)
	slots := make(chan struct{}, inFlight)
	var wg sync.WaitGroup
	for i := range lags {
		due := dueTime(start, rate, i)
		time.Sleep(time.Until(due))
		slots <- struct{}{}
		lags[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			op(i, due)
			<-slots
		}()
	}
	wg.Wait()
	return lags
}

// maxReadsInFlight bounds the open-loop reader.
const maxReadsInFlight = 4

// How often a phase takes the machine's speed: speedTicks refWorks before and
// after a step that cannot be interrupted, one every speedReads quiescent
// reads, one every speedEvery beside an open loop.
const (
	speedTicks = 8
	speedReads = 10
	speedEvery = 20 * time.Millisecond
)

// closedLoop performs total operations from clients goroutines; each sends its
// next operation when its previous one returns.
func closedLoop(clients, total int, op func(client int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(total) {
				op(c)
			}
		}()
	}
	wg.Wait()
}

// runEpoch boots a fresh system in dir, measures one window of the workload,
// reopens the directory and verifies what the window stored. rec non-nil
// makes it a traced epoch. turn orders it among epochs side by side.
func runEpoch(spec workloadSpec, seed int64, dir string, rec *recorder, turn *turns) (*epochResult, error) {
	defer os.RemoveAll(dir)
	res := &epochResult{}
	defer turn.end()

	// Set-up: inputs, open, load, serve, warm up, preload. Each phase that is
	// the CPU's work takes the machine's speed as it goes.
	var setupSpeed, windowSpeed speedometer
	t0 := time.Now()
	if spec.CPUBound {
		setupSpeed.tick(speedTicks)
	}
	st, err := boot(spec, seed, dir, rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	d := newDriver(st)
	tenantOf := func(client int) string { return st.tenants[client%len(st.tenants)] }
	closedLoop(spec.Clients, spec.Warmups+spec.Preload, func(c int) {
		d.detect(tenantOf(c), time.Time{})
		if spec.CPUBound {
			setupSpeed.tick(1)
		}
	})
	if d.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", d.firstFailure)
	}
	if spec.CPUBound {
		setupSpeed.tick(speedTicks)
	}
	res.setup, res.setupSpeed = time.Since(t0)-setupSpeed.spent, setupSpeed.factor()

	// The window.
	var layer *layerProbe
	if rec != nil {
		if layer, err = startLayerProbe(st, rec); err != nil {
			return nil, err
		}
	}
	if err := st.sys.DB.Sync(); err != nil {
		return nil, err
	}
	diskBefore, err := dirSize(dir, "")
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var mu sync.Mutex
	var dets []detection
	record := func(det detection, err error) {
		if err != nil {
			return
		}
		mu.Lock()
		dets = append(dets, det)
		mu.Unlock()
	}
	turn.openWindow()
	start := time.Now()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		if spec.ReadRate == 0 {
			return
		}
		// The reader's schedule spans the writer's.
		rd := newReader(d, seed)
		var mu sync.Mutex
		lags := openLoop(start, spec.ReadRate, spec.Runs*spec.ReadRate/spec.WriteRate, maxReadsInFlight, func(_ int, due time.Time) {
			next := rd.plan()
			took := rd.fetch(next, due)
			mu.Lock()
			res.reads[next.kind] = append(res.reads[next.kind], ms(took))
			mu.Unlock()
		})
		res.lags = append(res.lags, msAll(lags)...)
	}()
	if spec.WriteRate > 0 {
		stop := func() {}
		if spec.CPUBound {
			stop = windowSpeed.during(speedEvery)
		}
		lags := openLoop(start, spec.WriteRate, spec.Runs, spec.Clients, func(i int, due time.Time) { record(d.detect(tenantOf(i), due)) })
		<-readerDone
		stop()
		if spec.Clients > 1 {
			// A writer held to one request in flight is late whenever its
			// predecessor overran, which its latency already says.
			res.lags = append(res.lags, msAll(lags)...)
		}
		res.window, res.openLoop = time.Since(start), true
	} else {
		// A client takes the speed between two of its requests, which the
		// window then does not count.
		closedLoop(spec.Clients, spec.Runs, func(c int) {
			record(d.detect(tenantOf(c), time.Time{}))
			if spec.CPUBound {
				windowSpeed.tick(1)
			}
		})
		res.window = time.Since(start) - windowSpeed.spent/time.Duration(spec.Clients)
	}
	res.windowSpeed = windowSpeed.factor()
	if spec.ReadRate > 0 {
		var all []float64
		for _, samples := range res.reads {
			all = append(all, samples...)
		}
		res.batches = []readBatch{{all, res.windowSpeed}}
	}
	runtime.ReadMemStats(&after)
	turn.closeWindow()
	if layer != nil {
		if err := layer.stop(); err != nil {
			return nil, err
		}
	}
	res.mallocs = after.Mallocs - before.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.heapGrowth = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	res.runs = len(dets)
	for _, det := range dets {
		res.detect = append(res.detect, ms(det.latency))
	}

	// Closed-loop workloads read the mix once the writers are done, in batches
	// that each take the machine's speed as they go. The first cycles are not
	// timed: they bring connections and caches back after a window that may
	// have been mostly waiting.
	if spec.ReadBatches > 0 && d.failed == 0 {
		rd := newReader(d, seed)
		for i := 0; i < 5*len(rd.cycle); i++ {
			rd.fetch(rd.plan(), time.Time{})
		}
		for b := 0; b < spec.ReadBatches; b++ {
			var batch []float64
			var speed speedometer
			for i := 0; i < spec.BatchReads; i++ {
				next := rd.plan()
				took := ms(rd.fetch(next, time.Time{}))
				res.reads[next.kind] = append(res.reads[next.kind], took)
				batch = append(batch, took)
				if i%speedReads == 0 {
					speed.tick(1)
				}
			}
			res.batches = append(res.batches, readBatch{batch, speed.factor()})
		}
	}
	if layer != nil && d.failed == 0 {
		t0 := time.Now()
		if _, _, err := d.scanRuns(); err != nil {
			return nil, err
		}
		if res.layer, err = layer.finish(d, dets, ms(time.Since(t0))); err != nil {
			return nil, err
		}
	}

	// Restart cost, then check what the window left on disk.
	var diskAfter int64
	if res.reopen, diskAfter, err = st.reopen(); err != nil {
		return nil, err
	}
	res.diskGrowth = diskAfter - diskBefore
	d.rebase()
	verr := verify(st, d, seed)
	turn.end() // nothing below is timed; shutting down can wait out a poll timer
	res.attempted, res.failed, res.failure = d.attempted, d.failed, d.firstFailure
	if res.failure == nil {
		res.failure = verr
	}
	return res, nil
}
