package quality

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// paperManager reproduces the §IV.C setup: species-name accuracy measured
// from counts, reputation and availability read from annotations.
func paperManager(t *testing.T) *Manager {
	t.Helper()
	m := NewManager()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Register(RatioMetric("species-name-accuracy", DimAccuracy,
		"fraction of names still accepted by the authority",
		func(ctx *Context) (int, int, error) {
			okv, _ := ctx.Value("names.correct")
			tot, _ := ctx.Value("names.total")
			return okv.(int), tot.(int), nil
		})))
	must(m.Register(AnnotationMetric("authority-reputation", DimReputation)))
	must(m.Register(AnnotationMetric("authority-availability", DimAvailability)))
	return m
}

func paperContext() *Context {
	return &Context{
		Subject: "FNJV species-name metadata",
		Values: map[string]any{
			"names.correct": 1795, // 1929 - 134
			"names.total":   1929,
		},
		Annotations: map[string]string{
			"reputation":   "1",
			"availability": "0.9",
		},
		Now: time.Date(2013, 11, 12, 19, 58, 9, 0, time.UTC),
	}
}

func paperGoal() Goal {
	return Goal{
		Name: "long-term-preservation",
		Weights: map[string]float64{
			DimAccuracy:     2,
			DimReputation:   1,
			DimAvailability: 1,
		},
	}
}

func TestAssessPaperNumbers(t *testing.T) {
	m := paperManager(t)
	a, err := m.Assess(paperGoal(), paperContext())
	if err != nil {
		t.Fatal(err)
	}
	// 1795/1929 = 0.9305... — the paper reports "93% accurate".
	if acc := a.Dimensions[DimAccuracy]; acc < 0.93 || acc >= 0.94 {
		t.Fatalf("accuracy = %.4f, want ≈0.93", acc)
	}
	if a.Dimensions[DimReputation] != 1 {
		t.Fatalf("reputation = %v", a.Dimensions[DimReputation])
	}
	if a.Dimensions[DimAvailability] != 0.9 {
		t.Fatalf("availability = %v", a.Dimensions[DimAvailability])
	}
	want := (2*0.930533 + 1*1 + 1*0.9) / 4
	if diff := a.Utility - want; diff > 0.001 || diff < -0.001 {
		t.Fatalf("utility = %.4f, want %.4f", a.Utility, want)
	}
	if !a.Accepted {
		t.Fatal("high-quality subject rejected")
	}
	if len(a.Missing) != 0 {
		t.Fatalf("missing = %v", a.Missing)
	}
}

func TestAssessMissingDimension(t *testing.T) {
	m := paperManager(t)
	goal := paperGoal()
	goal.Weights[DimConsistency] = 1 // no metric registered for it
	a, err := m.Assess(goal, paperContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Missing) != 1 || a.Missing[0] != DimConsistency {
		t.Fatalf("missing = %v", a.Missing)
	}
	// Utility renormalizes over available dimensions only.
	if a.Utility <= 0 || a.Utility > 1 {
		t.Fatalf("utility = %f", a.Utility)
	}
}

func TestAssessFailingMetricIsReported(t *testing.T) {
	m := paperManager(t)
	ctx := paperContext()
	delete(ctx.Annotations, "availability")
	a, err := m.Assess(paperGoal(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, r := range a.Results {
		if r.Metric == "authority-availability" && r.Err != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("failing metric not surfaced")
	}
	// Dimension with only a failing metric is missing.
	if len(a.Missing) != 1 || a.Missing[0] != DimAvailability {
		t.Fatalf("missing = %v", a.Missing)
	}
}

func TestAssessValidation(t *testing.T) {
	m := paperManager(t)
	if _, err := m.Assess(Goal{Name: "empty"}, paperContext()); err == nil {
		t.Fatal("goal without weights accepted")
	}
	m2 := NewManager()
	if _, err := m2.Assess(paperGoal(), paperContext()); !errors.Is(err, ErrNoMetrics) {
		t.Fatalf("no metrics: %v", err)
	}
	if err := m.Register(Metric{}); err == nil {
		t.Fatal("empty metric registered")
	}
	if err := m.Register(AnnotationMetric("authority-reputation", DimReputation)); !errors.Is(err, ErrDuplicateMetric) {
		t.Fatalf("duplicate: %v", err)
	}
	// Nil context and zero Now are tolerated.
	m3 := NewManager()
	m3.Register(Metric{Name: "const", Dimension: "d", Compute: func(ctx *Context) (Score, error) {
		if ctx.Now.IsZero() {
			return Score{}, errors.New("Now not defaulted")
		}
		return Score{Value: 1}, nil
	}})
	if _, err := m3.Assess(Goal{Name: "g", Weights: map[string]float64{"d": 1}}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScoreClamping(t *testing.T) {
	m := NewManager()
	m.Register(Metric{Name: "wild", Dimension: "d", Compute: func(*Context) (Score, error) {
		return Score{Value: 42}, nil
	}})
	a, err := m.Assess(Goal{Name: "g", Weights: map[string]float64{"d": 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dimensions["d"] != 1 {
		t.Fatalf("score not clamped: %f", a.Dimensions["d"])
	}
}

func TestUtilityBoundedProperty(t *testing.T) {
	f := func(ok, extra uint16, w1, w2 uint8) bool {
		total := int(ok) + int(extra)
		if total == 0 {
			total = 1
		}
		m := NewManager()
		m.Register(RatioMetric("r", "d1", "", func(*Context) (int, int, error) {
			return int(ok), total, nil
		}))
		m.Register(Metric{Name: "c", Dimension: "d2", Compute: func(*Context) (Score, error) {
			return Score{Value: 0.5}, nil
		}})
		goal := Goal{Name: "g", Weights: map[string]float64{
			"d1": float64(w1%10) + 0.1,
			"d2": float64(w2%10) + 0.1,
		}}
		a, err := m.Assess(goal, nil)
		if err != nil {
			return false
		}
		return a.Utility >= 0 && a.Utility <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioMetricEdgeCases(t *testing.T) {
	m := RatioMetric("r", DimAccuracy, "", func(*Context) (int, int, error) { return 0, 0, nil })
	s, err := m.Compute(&Context{})
	if err != nil || s.Value != 0 {
		t.Fatalf("zero-total ratio = %+v, %v", s, err)
	}
	mErr := RatioMetric("r2", DimAccuracy, "", func(*Context) (int, int, error) {
		return 0, 0, errors.New("source down")
	})
	if _, err := mErr.Compute(&Context{}); err == nil {
		t.Fatal("error swallowed")
	}
}

func TestAnnotationMetricErrors(t *testing.T) {
	m := AnnotationMetric("a", DimReputation)
	if _, err := m.Compute(&Context{Annotations: map[string]string{}}); err == nil {
		t.Fatal("missing annotation accepted")
	}
	if _, err := m.Compute(&Context{Annotations: map[string]string{"reputation": "high"}}); err == nil {
		t.Fatal("non-numeric annotation accepted")
	}
}

func TestTimelinessMetric(t *testing.T) {
	now := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	m := TimelinessMetric("t", "last", 100*24*time.Hour)
	fresh, err := m.Compute(&Context{Now: now, Values: map[string]any{"last": now}})
	if err != nil || fresh.Value != 1 {
		t.Fatalf("fresh = %+v, %v", fresh, err)
	}
	half, _ := m.Compute(&Context{Now: now, Values: map[string]any{"last": now.Add(-50 * 24 * time.Hour)}})
	if half.Value < 0.49 || half.Value > 0.51 {
		t.Fatalf("half-age = %f", half.Value)
	}
	old, _ := m.Compute(&Context{Now: now, Values: map[string]any{"last": now.Add(-300 * 24 * time.Hour)}})
	if old.Value != 0 {
		t.Fatalf("stale = %f", old.Value)
	}
	future, _ := m.Compute(&Context{Now: now, Values: map[string]any{"last": now.Add(24 * time.Hour)}})
	if future.Value != 1 {
		t.Fatalf("future-dated = %f", future.Value)
	}
	if _, err := m.Compute(&Context{Now: now, Values: map[string]any{}}); err == nil {
		t.Fatal("missing key accepted")
	}
	if _, err := m.Compute(&Context{Now: now, Values: map[string]any{"last": "yesterday"}}); err == nil {
		t.Fatal("wrong type accepted")
	}
}

func TestRank(t *testing.T) {
	m := NewManager()
	m.Register(Metric{Name: "score", Dimension: DimAccuracy, Compute: func(ctx *Context) (Score, error) {
		v, _ := ctx.Value("v")
		return Score{Value: v.(float64)}, nil
	}})
	goal := Goal{Name: "g", Weights: map[string]float64{DimAccuracy: 1}, AcceptThreshold: 0.6}
	ctxs := []*Context{
		{Subject: "low", Values: map[string]any{"v": 0.2}},
		{Subject: "high", Values: map[string]any{"v": 0.9}},
		{Subject: "mid", Values: map[string]any{"v": 0.6}},
	}
	ranked, err := m.Rank(goal, ctxs)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Subject != "high" || ranked[1].Subject != "mid" || ranked[2].Subject != "low" {
		t.Fatalf("order = %v,%v,%v", ranked[0].Subject, ranked[1].Subject, ranked[2].Subject)
	}
	if !ranked[0].Assessment.Accepted || !ranked[1].Assessment.Accepted || ranked[2].Assessment.Accepted {
		t.Fatal("threshold application wrong")
	}
	// Ties break by subject.
	tie, err := m.Rank(goal, []*Context{
		{Subject: "b", Values: map[string]any{"v": 0.5}},
		{Subject: "a", Values: map[string]any{"v": 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tie[0].Subject != "a" {
		t.Fatalf("tie order = %v", tie[0].Subject)
	}
	// Error propagation.
	if _, err := m.Rank(Goal{Name: "g"}, ctxs); err == nil {
		t.Fatal("bad goal accepted in Rank")
	}
}

func TestReportRendering(t *testing.T) {
	m := paperManager(t)
	a, err := m.Assess(paperGoal(), paperContext())
	if err != nil {
		t.Fatal(err)
	}
	text := Report(a)
	for _, want := range []string{
		"FNJV species-name metadata",
		"accuracy",
		"0.93",
		"reputation",
		"availability",
		"0.900",
		"utility index",
		"accept",
		"1795 of 1929 (93.1%)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	ranked, _ := m.Rank(paperGoal(), []*Context{paperContext()})
	sum := Summary(ranked)
	if !strings.Contains(sum, "FNJV species-name metadata") || !strings.Contains(sum, "accept") {
		t.Errorf("summary:\n%s", sum)
	}
}

func TestReportShowsFailures(t *testing.T) {
	m := NewManager()
	m.Register(Metric{Name: "broken", Dimension: "d", Compute: func(*Context) (Score, error) {
		return Score{}, fmt.Errorf("no data")
	}})
	m.Register(Metric{Name: "works", Dimension: "d", Compute: func(*Context) (Score, error) {
		return Score{Value: 1}, nil
	}})
	a, err := m.Assess(Goal{Name: "g", Weights: map[string]float64{"d": 1, "ghost": 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := Report(a)
	if !strings.Contains(text, "unavailable: no data") || !strings.Contains(text, "unavailable dimensions: ghost") {
		t.Errorf("report:\n%s", text)
	}
}
