package workflow

import (
	"context"
	"strings"
	"testing"
)

type ctxType = context.Context

func ctxBG() context.Context { return context.Background() }

// detectionShape mirrors the case-study workflow: list input, scalar
// resolver (iterates), list-consuming summarizer.
func detectionShape() *Definition {
	return &Definition{
		ID: "wf-shape", Name: "shape",
		Inputs:  []Port{{Name: "names", Depth: 1}},
		Outputs: []Port{{Name: "summary", Depth: 0}},
		Processors: []*Processor{
			{Name: "Resolve", Service: "svc",
				Inputs:  []Port{{Name: "name", Depth: 0}},
				Outputs: []Port{{Name: "result", Depth: 0}}},
			{Name: "Summarize", Service: "svc",
				Inputs:  []Port{{Name: "results", Depth: 1}},
				Outputs: []Port{{Name: "summary", Depth: 0}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "names"}, Target: Endpoint{Processor: "Resolve", Port: "name"}},
			{Source: Endpoint{Processor: "Resolve", Port: "result"}, Target: Endpoint{Processor: "Summarize", Port: "results"}},
			{Source: Endpoint{Processor: "Summarize", Port: "summary"}, Target: Endpoint{Port: "summary"}},
		},
	}
}

func TestAnalyzeDepthsDetectionShape(t *testing.T) {
	a, err := AnalyzeDepths(detectionShape())
	if err != nil {
		t.Fatal(err)
	}
	if a.IterationDelta["Resolve"] != 1 {
		t.Fatalf("Resolve delta = %d, want 1 (iterates)", a.IterationDelta["Resolve"])
	}
	if a.IterationDelta["Summarize"] != 0 {
		t.Fatalf("Summarize delta = %d, want 0 (consumes the list)", a.IterationDelta["Summarize"])
	}
	if a.OutputDepth["summary"] != 0 {
		t.Fatalf("output depth = %d", a.OutputDepth["summary"])
	}
	if len(a.Warnings) != 0 {
		t.Fatalf("warnings = %v", a.Warnings)
	}
}

func TestAnalyzeDepthsWarnsOnOutputMismatch(t *testing.T) {
	d := linearDef() // scalar pipeline
	d.Inputs[0].Depth = 1
	// Output "out" declared depth 0 but A and B iterate, producing depth 1.
	a, err := AnalyzeDepths(d)
	if err != nil {
		t.Fatal(err)
	}
	if a.IterationDelta["A"] != 1 || a.IterationDelta["B"] != 1 {
		t.Fatalf("deltas = %v", a.IterationDelta)
	}
	if a.OutputDepth["out"] != 1 {
		t.Fatalf("output depth = %d", a.OutputDepth["out"])
	}
	if len(a.Warnings) != 1 || !strings.Contains(a.Warnings[0], `output "out"`) {
		t.Fatalf("warnings = %v", a.Warnings)
	}
}

func TestAnalyzeDepthsRejectsDeepGap(t *testing.T) {
	d := detectionShape()
	d.Inputs[0].Depth = 2 // list of lists into a scalar port: needs 2 levels
	_, err := AnalyzeDepths(d)
	if err == nil || !strings.Contains(err.Error(), "engine supports 1") {
		t.Fatalf("deep gap: %v", err)
	}
}

func TestAnalyzeDepthsRejectsTooShallow(t *testing.T) {
	d := detectionShape()
	d.Inputs[0].Depth = 0 // scalar into Summarize's list port via Resolve
	// Resolve: input declared 0, actual 0 → delta 0, result depth 0.
	// Summarize: results declared 1, actual 0 → too shallow.
	_, err := AnalyzeDepths(d)
	if err == nil || !strings.Contains(err.Error(), "too shallow") {
		t.Fatalf("shallow gap: %v", err)
	}
}

func TestAnalyzeDepthsMatchesEngineBehaviour(t *testing.T) {
	// The analysis must agree with what the engine actually does: predicted
	// iteration counts equal the run's invocation counts, and the predicted
	// output depth equals the produced datum's depth.
	d := detectionShape()
	a, err := AnalyzeDepths(d)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register("svc", func(_ ctxType, c Call) (map[string]Data, error) {
		out := map[string]Data{}
		// Echo a scalar on every declared output port.
		for _, port := range []string{"result", "summary"} {
			out[port] = Scalar("x")
		}
		return out, nil
	})
	res, err := NewEventEngine(reg).Run(ctxBG(), d, map[string]Data{
		"names": List(Scalar("a"), Scalar("b"), Scalar("c")),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Predicted: Resolve iterates (3 invocations), Summarize once.
	if res.Invocations["Resolve"] != 3 || res.Invocations["Summarize"] != 1 {
		t.Fatalf("invocations = %v (analysis deltas %v)", res.Invocations, a.IterationDelta)
	}
	if got := res.Outputs["summary"].Depth(); got != a.OutputDepth["summary"] {
		t.Fatalf("output depth %d, analysis predicted %d", got, a.OutputDepth["summary"])
	}
}
