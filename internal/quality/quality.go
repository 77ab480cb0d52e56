// Package quality implements the Data Quality Manager of the architecture:
// a user-extensible quality metamodel in the style of Lemos/Qbox — quality
// goals reference dimensions, dimensions are measured by metrics, and
// metrics are computed by pluggable measurement methods that may read the
// provenance repository, the adapter's workflow annotations, or external
// data sources. Assessments aggregate metric scores per dimension and into a
// single utility index used for scoring and ranking (as in Gamble & Goble's
// decision networks).
package quality

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// Canonical dimension names. Users may register metrics under any dimension
// name; these constants cover the ones the literature cites most and the
// two the paper's Listing 1 annotates.
const (
	DimAccuracy     = "accuracy"
	DimCompleteness = "completeness"
	DimTimeliness   = "timeliness"
	DimConsistency  = "consistency"
	DimReputation   = "reputation"
	DimAvailability = "availability"
)

// Score is the result of one metric: a value in [0,1] plus a human-readable
// explanation of how it was obtained.
type Score struct {
	Value  float64
	Detail string
}

// Context carries the inputs a measurement method may consult. Values is an
// open bag supplied by the caller (record sets, client stats, report rows);
// Annotations carries the quality annotations extracted from provenance for
// the subject under assessment (dimension -> value).
type Context struct {
	Subject     string
	Values      map[string]any
	Annotations map[string]string
	Now         time.Time
}

// Value fetches a context value.
func (c *Context) Value(key string) (any, bool) {
	v, ok := c.Values[key]
	return v, ok
}

// MetricFunc computes one metric.
type MetricFunc func(ctx *Context) (Score, error)

// Metric binds a named measurement method to a quality dimension.
type Metric struct {
	Name        string
	Dimension   string
	Description string
	Compute     MetricFunc
}

// Goal is a named quality goal: the dimensions the end user cares about and
// their relative weights (the paper: "quality metrics are computed as
// defined by end users").
type Goal struct {
	Name        string
	Description string
	Weights     map[string]float64
	// AcceptThreshold is the minimum utility for Accept (default 0.5).
	AcceptThreshold float64
}

// Manager registers metrics and runs assessments.
type Manager struct {
	metrics map[string]Metric
}

// Registration and assessment errors.
var (
	ErrDuplicateMetric = errors.New("quality: duplicate metric")
	ErrNoMetrics       = errors.New("quality: no metrics for goal dimensions")
)

// NewManager builds an empty manager.
func NewManager() *Manager { return &Manager{metrics: make(map[string]Metric)} }

// Register adds a metric. Metric names are unique.
func (m *Manager) Register(metric Metric) error {
	if metric.Name == "" || metric.Dimension == "" || metric.Compute == nil {
		return fmt.Errorf("quality: metric needs name, dimension and compute func")
	}
	if _, dup := m.metrics[metric.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateMetric, metric.Name)
	}
	m.metrics[metric.Name] = metric
	return nil
}

// Metrics lists registered metrics sorted by name.
func (m *Manager) Metrics() []Metric {
	out := make([]Metric, 0, len(m.metrics))
	for _, mt := range m.metrics {
		out = append(out, mt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MetricResult is one computed metric inside an assessment.
type MetricResult struct {
	Metric    string
	Dimension string
	Score     Score
	Err       string // non-empty when the metric could not be computed
}

// Assessment is the outcome of assessing one subject against one goal.
type Assessment struct {
	Goal       string
	Subject    string
	At         time.Time
	Results    []MetricResult
	Dimensions map[string]float64 // mean score per dimension
	// Utility is the weight-normalized aggregate over the goal's dimensions
	// — the scoring/ranking index.
	Utility float64
	// Accepted applies the goal's accept threshold to Utility.
	Accepted bool
	// Missing lists goal dimensions no registered metric could measure (the
	// paper: "not all quality dimensions requested by the end user may be
	// available").
	Missing []string
}

// Assess computes every registered metric whose dimension the goal weights,
// aggregates per dimension, and derives the utility index.
func (m *Manager) Assess(goal Goal, ctx *Context) (*Assessment, error) {
	if len(goal.Weights) == 0 {
		return nil, fmt.Errorf("quality: goal %q has no weighted dimensions", goal.Name)
	}
	if ctx == nil {
		ctx = &Context{}
	}
	if ctx.Now.IsZero() {
		ctx.Now = time.Now()
	}
	a := &Assessment{
		Goal:       goal.Name,
		Subject:    ctx.Subject,
		At:         ctx.Now,
		Dimensions: map[string]float64{},
	}
	perDim := map[string][]float64{}
	for _, metric := range m.Metrics() {
		if _, wanted := goal.Weights[metric.Dimension]; !wanted {
			continue
		}
		res := MetricResult{Metric: metric.Name, Dimension: metric.Dimension}
		score, err := metric.Compute(ctx)
		if err != nil {
			res.Err = err.Error()
		} else {
			score.Value = clamp01(score.Value)
			res.Score = score
			perDim[metric.Dimension] = append(perDim[metric.Dimension], score.Value)
		}
		a.Results = append(a.Results, res)
	}
	if len(perDim) == 0 {
		return nil, fmt.Errorf("%w: goal %q", ErrNoMetrics, goal.Name)
	}
	var weightSum, weighted float64
	for dim, weight := range goal.Weights {
		vals, ok := perDim[dim]
		if !ok {
			a.Missing = append(a.Missing, dim)
			continue
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		a.Dimensions[dim] = mean
		weighted += weight * mean
		weightSum += weight
	}
	sort.Strings(a.Missing)
	if weightSum > 0 {
		a.Utility = weighted / weightSum
	}
	threshold := goal.AcceptThreshold
	if threshold == 0 {
		threshold = 0.5
	}
	a.Accepted = a.Utility >= threshold
	return a, nil
}

func clamp01(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return math.Max(0, math.Min(1, x))
}

// --- Built-in measurement-method constructors ---

// RatioMetric builds a metric from a correct/total counter: accuracy as "a
// percentage of correct names" (§IV.C), completeness as filled/expected, etc.
func RatioMetric(name, dimension, description string, count func(ctx *Context) (ok, total int, err error)) Metric {
	return Metric{
		Name: name, Dimension: dimension, Description: description,
		Compute: func(ctx *Context) (Score, error) {
			ok, total, err := count(ctx)
			if err != nil {
				return Score{}, err
			}
			if total <= 0 {
				return Score{Value: 0, Detail: "no items to assess"}, nil
			}
			v := float64(ok) / float64(total)
			return Score{Value: v, Detail: fmt.Sprintf("%d of %d (%.1f%%)", ok, total, 100*v)}, nil
		},
	}
}

// AnnotationMetric reads a dimension's value straight from the provenance
// annotations (the Workflow Adapter's Q(...) assertions — source (b) of the
// Data Quality Manager).
func AnnotationMetric(name, dimension string) Metric {
	return Metric{
		Name: name, Dimension: dimension,
		Description: "expert-asserted " + dimension + " from workflow annotations",
		Compute: func(ctx *Context) (Score, error) {
			raw, ok := ctx.Annotations[dimension]
			if !ok {
				return Score{}, fmt.Errorf("quality: no %q annotation on subject %q", dimension, ctx.Subject)
			}
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return Score{}, fmt.Errorf("quality: annotation %q=%q is not numeric", dimension, raw)
			}
			return Score{Value: v, Detail: fmt.Sprintf("annotated %s=%s", dimension, raw)}, nil
		},
	}
}

// TimelinessMetric scores freshness: 1 at age 0 decaying linearly to 0 at
// maxAge — "curated (meta)data that in the past was reliable may have its
// content degraded with time".
func TimelinessMetric(name, lastCuratedKey string, maxAge time.Duration) Metric {
	return Metric{
		Name: name, Dimension: DimTimeliness,
		Description: fmt.Sprintf("linear decay over %s since last curation", maxAge),
		Compute: func(ctx *Context) (Score, error) {
			raw, ok := ctx.Value(lastCuratedKey)
			if !ok {
				return Score{}, fmt.Errorf("quality: context has no %q", lastCuratedKey)
			}
			last, ok := raw.(time.Time)
			if !ok {
				return Score{}, fmt.Errorf("quality: %q is not a time.Time", lastCuratedKey)
			}
			age := ctx.Now.Sub(last)
			if age < 0 {
				age = 0
			}
			v := 1 - float64(age)/float64(maxAge)
			return Score{Value: clamp01(v), Detail: fmt.Sprintf("age %s of %s budget", age.Round(time.Second), maxAge)}, nil
		},
	}
}

// --- Ranking (Gamble & Goble-style scoring) ---

// Ranked pairs a subject with its assessment for ordering.
type Ranked struct {
	Subject    string
	Assessment *Assessment
}

// Rank assesses each context against the goal and orders subjects by
// descending utility (ties by subject for determinism).
func (m *Manager) Rank(goal Goal, ctxs []*Context) ([]Ranked, error) {
	out := make([]Ranked, 0, len(ctxs))
	for _, ctx := range ctxs {
		a, err := m.Assess(goal, ctx)
		if err != nil {
			return nil, fmt.Errorf("quality: subject %q: %w", ctx.Subject, err)
		}
		out = append(out, Ranked{Subject: ctx.Subject, Assessment: a})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Assessment.Utility != out[j].Assessment.Utility {
			return out[i].Assessment.Utility > out[j].Assessment.Utility
		}
		return out[i].Subject < out[j].Subject
	})
	return out, nil
}
