package main

import "testing"

func TestOutPath(t *testing.T) {
	for _, tc := range []struct {
		out   string
		smoke bool
		want  string // "" = usage error
	}{
		{"", false, ""},
		{"", true, "BENCH_smoke.json"},
		{"BENCH_15.json", false, "BENCH_15.json"},
		{"x.json", true, "x.json"},
	} {
		got, err := outPath(tc.out, tc.smoke)
		if got != tc.want || (err != nil) != (tc.want == "") {
			t.Errorf("outPath(%q, smoke=%v) = %q, %v; want %q", tc.out, tc.smoke, got, err, tc.want)
		}
	}
}

func TestPRFromPath(t *testing.T) {
	for path, want := range map[string]int{
		"BENCH_10.json":          10,
		"out/BENCH_12.json":      12,
		"BENCH_smoke.json":       0,
		"trajectory.json":        0,
		"/tmp/x/BENCH_7.json":    7,
		"BENCH_.json":            0,
		"notBENCH_9.json":        0,
		"BENCH_11.json.bak.json": 0,
	} {
		if got := prFromPath(path); got != want {
			t.Errorf("prFromPath(%q) = %d, want %d", path, got, want)
		}
	}
}
