package main

import (
	"math"
	"testing"
	"time"
)

func TestSpeedFactor(t *testing.T) {
	var s speedometer
	if got := s.factor(); got != 1 {
		t.Errorf("a phase that never ticked has factor %v, want 1", got)
	}
	// A machine on which refWork takes twice refNominal is half as fast: a
	// time measured on it counts half. One outlier does not move the median.
	twice := float64(2 * refNominal)
	s.samples = []float64{twice, twice, twice, 10 * twice, twice}
	if got := s.factor(); got != 0.5 {
		t.Errorf("factor at half speed = %v, want 0.5", got)
	}
}

func TestSpeedometerTicks(t *testing.T) {
	var s speedometer
	s.tick(3)
	if len(s.samples) != 3 || s.spent <= 0 {
		t.Fatalf("3 ticks left %d samples and %v spent", len(s.samples), s.spent)
	}
	stop := s.during(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	stop()
	n := len(s.samples)
	if n <= 3 {
		t.Errorf("ticking beside a phase for 20 ms added no samples")
	}
	time.Sleep(5 * time.Millisecond)
	if len(s.samples) != n {
		t.Errorf("speedometer kept ticking after stop")
	}
}

// The reference must not feel the program's heap or collector.
func TestRefWorkAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, refWork); allocs != 0 {
		t.Errorf("refWork allocates %v times per call, want 0", allocs)
	}
}

func TestLowerQuartile(t *testing.T) {
	if got := lowerQuartile(nil); got != 0 {
		t.Errorf("lower quartile of nothing = %v", got)
	}
	if got := lowerQuartile([]float64{7}); got != 7 {
		t.Errorf("lower quartile of one reading = %v", got)
	}
	if got := lowerQuartile([]float64{8, 1, 5, 3, 9, 2, 7, 4}); got != 2 {
		t.Errorf("lower quartile of 1..9 without 6 = %v, want 2 (rank 2 of 8)", got)
	}
}

// An epoch's times are scaled by the speed of the phase they were measured
// in; what the schedule fixed is not.
func TestEndToEndScalesTimes(t *testing.T) {
	samples := func(v float64) []float64 {
		out := make([]float64, 20)
		for i := range out {
			out[i] = v
		}
		return out
	}
	res := &epochResult{
		setup: 2 * time.Second, window: 10 * time.Second, reopen: time.Second,
		runs: 20, detect: samples(8), setupSpeed: 0.5, windowSpeed: 0.25,
		batches: []readBatch{{samples(4), 0.5}, {samples(4), 1}, {samples(2), 0.5}, {samples(9), 1}},
	}
	want := map[string]float64{
		"setup_s": 1, "detect_runs_per_s": 8, "detect_p50_ms": 2, "detect_p90_ms": 2,
		"read_p50_ms": 1, "read_p95_ms": 1, "reopen_s": 1,
	}
	check := func(res *epochResult) {
		t.Helper()
		got, err := res.endToEnd(0, map[string]int{})
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			if math.Abs(got[name]-w) > 1e-9 {
				t.Errorf("openLoop=%v: %s = %v, want %v", res.openLoop, name, got[name], w)
			}
		}
	}
	check(res)
	res.openLoop, want["detect_runs_per_s"] = true, 2
	check(res)
}
