package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 50}, {0.90, 90}} {
		got, err := percentile(samples, tc.p, minBeyond)
		if err != nil || got != tc.want {
			t.Errorf("percentile(%.2f) = %v, %v; want %v", tc.p, got, err, tc.want)
		}
	}
	if samples[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := make([]float64, 99)
	if _, err := percentile(samples, 0.90, minBeyond); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and was accepted")
	}
	if _, err := percentile(samples[:19], 0.50, minBeyond); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and was accepted")
	}
	if _, err := percentile(samples[:20], 0.50, minBeyond); err != nil {
		t.Errorf("p50 of 20 samples has 10 beyond it and was refused: %v", err)
	}
	if _, err := percentile(nil, 0.50, 0); err == nil {
		t.Error("percentile of no samples was accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}
