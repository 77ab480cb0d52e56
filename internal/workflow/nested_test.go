package workflow

import (
	"context"
	"strings"
	"testing"
)

// innerDef: in -> upper -> exclaim -> out (reuses upperReg services).
func innerDef() *Definition {
	d := linearDef()
	d.ID, d.Name = "wf-inner", "inner"
	d.Processors[0].Service = "upper"
	d.Processors[1].Service = "exclaim"
	return d
}

func TestNestedWorkflowExecution(t *testing.T) {
	reg := upperReg()
	proc, err := RegisterNested(reg, "shout", innerDef())
	if err != nil {
		t.Fatal(err)
	}
	if proc.Service != "nested:shout" || !IsNestedService(proc.Service) {
		t.Fatalf("nested service = %q", proc.Service)
	}
	if len(proc.Inputs) != 1 || proc.Inputs[0].Name != "in" {
		t.Fatalf("nested ports = %+v", proc.Inputs)
	}
	// Outer workflow: wrap the nested processor between two exclaims.
	outer := &Definition{
		ID: "wf-outer", Name: "outer",
		Inputs:  []Port{{Name: "x"}},
		Outputs: []Port{{Name: "y"}},
		Processors: []*Processor{
			proc,
			{Name: "Tail", Service: "exclaim", Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "x"}, Target: Endpoint{Processor: "shout", Port: "in"}},
			{Source: Endpoint{Processor: "shout", Port: "out"}, Target: Endpoint{Processor: "Tail", Port: "x"}},
			{Source: Endpoint{Processor: "Tail", Port: "y"}, Target: Endpoint{Port: "y"}},
		},
	}
	res, err := NewEventEngine(reg).Run(context.Background(), outer, map[string]Data{"x": Scalar("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["y"].String(); got != "HI!!" {
		t.Fatalf("nested result = %q", got)
	}
}

func TestNestedWorkflowIterates(t *testing.T) {
	reg := upperReg()
	proc, err := RegisterNested(reg, "shout", innerDef())
	if err != nil {
		t.Fatal(err)
	}
	outer := &Definition{
		ID: "wf-outer-iter", Name: "outer-iter",
		Inputs:     []Port{{Name: "x", Depth: 1}},
		Outputs:    []Port{{Name: "y", Depth: 1}},
		Processors: []*Processor{proc},
		Links: []Link{
			{Source: Endpoint{Port: "x"}, Target: Endpoint{Processor: "shout", Port: "in"}},
			{Source: Endpoint{Processor: "shout", Port: "out"}, Target: Endpoint{Port: "y"}},
		},
	}
	res, err := NewEventEngine(reg).Run(context.Background(), outer,
		map[string]Data{"x": List(Scalar("a"), Scalar("b"))})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["y"].String(); got != "[A!, B!]" {
		t.Fatalf("iterated nested result = %q", got)
	}
}

func TestNestedWorkflowFailurePropagates(t *testing.T) {
	reg := upperReg()
	bad := innerDef()
	bad.Processors[1].Service = "unregistered"
	// Registration validates structure only; the missing service surfaces at
	// run time with the nested workflow's name in the error.
	proc, err := RegisterNested(reg, "broken", bad)
	if err != nil {
		t.Fatal(err)
	}
	outer := &Definition{
		ID: "wf-outer-bad", Name: "outer-bad",
		Inputs:     []Port{{Name: "x"}},
		Outputs:    []Port{{Name: "y"}},
		Processors: []*Processor{proc},
		Links: []Link{
			{Source: Endpoint{Port: "x"}, Target: Endpoint{Processor: "broken", Port: "in"}},
			{Source: Endpoint{Processor: "broken", Port: "out"}, Target: Endpoint{Port: "y"}},
		},
	}
	_, err = NewEventEngine(reg).Run(context.Background(), outer, map[string]Data{"x": Scalar("a")})
	if err == nil || !strings.Contains(err.Error(), `nested workflow "broken"`) {
		t.Fatalf("nested failure: %v", err)
	}
}

func TestRegisterNestedValidates(t *testing.T) {
	reg := upperReg()
	bad := innerDef()
	bad.Name = ""
	if _, err := RegisterNested(reg, "x", bad); err == nil {
		t.Fatal("invalid nested definition registered")
	}
}

func TestRegisterNestedIsolatedFromMutation(t *testing.T) {
	reg := upperReg()
	inner := innerDef()
	if _, err := RegisterNested(reg, "shout", inner); err != nil {
		t.Fatal(err)
	}
	// Mutating the original definition after registration must not affect
	// the registered copy.
	inner.Processors[0].Service = "nonexistent"
	outer := &Definition{
		ID: "wf-outer2", Name: "outer2",
		Inputs:  []Port{{Name: "x"}},
		Outputs: []Port{{Name: "y"}},
		Processors: []*Processor{
			{Name: "shout", Service: "nested:shout",
				Inputs: []Port{{Name: "in"}}, Outputs: []Port{{Name: "out"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "x"}, Target: Endpoint{Processor: "shout", Port: "in"}},
			{Source: Endpoint{Processor: "shout", Port: "out"}, Target: Endpoint{Port: "y"}},
		},
	}
	res, err := NewEventEngine(reg).Run(context.Background(), outer, map[string]Data{"x": Scalar("ok")})
	if err != nil {
		t.Fatalf("mutation leaked into registered nested def: %v", err)
	}
	if res.Outputs["y"].String() != "OK!" {
		t.Fatalf("result = %q", res.Outputs["y"])
	}
}
