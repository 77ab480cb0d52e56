package workflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Workflow decay detection, after Zhao et al. ("Why workflows break",
// e-Science 2012), which the paper's conclusion cites to argue that quality
// assessment must be continuous: workflows rot when third-party services
// vanish or change, when example inputs disappear, and when their
// descriptions go stale. DecayDetector diagnoses a stored definition against
// the current registry, optional external health probes, a staleness budget
// for annotations, and an optional golden run.

// DecayKind classifies one decay finding.
type DecayKind uint8

// Decay kinds, ordered roughly by severity.
const (
	// DecayInvalid: the definition no longer validates structurally.
	DecayInvalid DecayKind = iota
	// DecayMissingService: a processor references a service absent from the
	// registry (the "third-party resource is missing" case).
	DecayMissingService
	// DecayUnhealthyService: the service exists but its health probe fails
	// (dead endpoint, authority offline).
	DecayUnhealthyService
	// DecayStaleAnnotation: a quality annotation is older than the staleness
	// budget — its assertion can no longer be trusted.
	DecayStaleAnnotation
	// DecayOutputDrift: re-executing the workflow on golden inputs no longer
	// reproduces the golden outputs (the "third-party resource changed"
	// case).
	DecayOutputDrift
	// DecayExecutionFailure: the golden run failed outright.
	DecayExecutionFailure
)

// String names the decay kind.
func (k DecayKind) String() string {
	switch k {
	case DecayInvalid:
		return "invalid-definition"
	case DecayMissingService:
		return "missing-service"
	case DecayUnhealthyService:
		return "unhealthy-service"
	case DecayStaleAnnotation:
		return "stale-annotation"
	case DecayOutputDrift:
		return "output-drift"
	case DecayExecutionFailure:
		return "execution-failure"
	default:
		return fmt.Sprintf("decay(%d)", uint8(k))
	}
}

// DecayFinding is one diagnosed problem.
type DecayFinding struct {
	Kind      DecayKind
	Processor string // "" for workflow-level findings
	Detail    string
}

// HealthProbe checks whether the external resource behind a processor is
// alive. A nil error means healthy.
type HealthProbe func(proc *Processor) error

// DecayDetector diagnoses workflow decay.
type DecayDetector struct {
	Registry *Registry
	// Probe, when set, is called for every processor (e.g. hitting the
	// authority's /healthz).
	Probe HealthProbe
	// MaxAnnotationAge is the staleness budget for quality annotations
	// (0 disables the check).
	MaxAnnotationAge time.Duration
	// Now supplies the clock (defaults to time.Now).
	Now func() time.Time
}

// Check diagnoses def without executing it. Findings are ordered by kind,
// then processor.
func (d *DecayDetector) Check(def *Definition) []DecayFinding {
	now := time.Now
	if d.Now != nil {
		now = d.Now
	}
	var out []DecayFinding
	if err := Validate(def); err != nil {
		out = append(out, DecayFinding{Kind: DecayInvalid, Detail: err.Error()})
		// Structural breakage makes other checks unreliable; stop here.
		return out
	}
	for _, p := range def.Processors {
		if d.Registry != nil {
			if _, ok := d.Registry.Lookup(p.Service); !ok {
				out = append(out, DecayFinding{
					Kind: DecayMissingService, Processor: p.Name,
					Detail: fmt.Sprintf("service %q is not registered", p.Service),
				})
				continue
			}
		}
		if d.Probe != nil {
			if err := d.Probe(p); err != nil {
				out = append(out, DecayFinding{
					Kind: DecayUnhealthyService, Processor: p.Name,
					Detail: fmt.Sprintf("health probe failed: %v", err),
				})
			}
		}
		if d.MaxAnnotationAge > 0 {
			for _, a := range p.Annotations {
				if QualityDimension(a.Key) == "" || a.Date.IsZero() {
					continue
				}
				if age := now().Sub(a.Date); age > d.MaxAnnotationAge {
					out = append(out, DecayFinding{
						Kind: DecayStaleAnnotation, Processor: p.Name,
						Detail: fmt.Sprintf("%s asserted %s ago (budget %s)", a.Key, age.Round(time.Hour), d.MaxAnnotationAge),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Processor < out[j].Processor
	})
	return out
}

// GoldenRun re-executes def on golden inputs and compares each output to the
// recorded golden value, reporting drift or execution failure. A clean run
// returns no findings.
func (d *DecayDetector) GoldenRun(ctx context.Context, def *Definition, inputs, golden map[string]Data) []DecayFinding {
	if d.Registry == nil {
		return []DecayFinding{{Kind: DecayExecutionFailure, Detail: "no registry to execute against"}}
	}
	res, err := NewEventEngine(d.Registry).Run(ctx, def, inputs)
	if err != nil {
		return []DecayFinding{{Kind: DecayExecutionFailure, Detail: err.Error()}}
	}
	var out []DecayFinding
	ports := make([]string, 0, len(golden))
	for port := range golden {
		ports = append(ports, port)
	}
	sort.Strings(ports)
	for _, port := range ports {
		got, ok := res.Outputs[port]
		if !ok {
			out = append(out, DecayFinding{
				Kind: DecayOutputDrift, Detail: fmt.Sprintf("output %q missing from run", port),
			})
			continue
		}
		if got.String() != golden[port].String() {
			out = append(out, DecayFinding{
				Kind:   DecayOutputDrift,
				Detail: fmt.Sprintf("output %q drifted: golden %d bytes, got %d bytes", port, len(golden[port].String()), len(got.String())),
			})
		}
	}
	return out
}

// ErrDecayed is a convenience sentinel for callers that treat any finding as
// fatal.
var ErrDecayed = errors.New("workflow: definition has decayed")

// MustBeFresh returns ErrDecayed (wrapped with the first finding) if Check
// reports anything.
func (d *DecayDetector) MustBeFresh(def *Definition) error {
	findings := d.Check(def)
	if len(findings) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s (%d findings)", ErrDecayed, findings[0].Detail, len(findings))
}
