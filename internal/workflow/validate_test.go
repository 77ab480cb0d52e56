package workflow

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// linearDef builds in -> A -> B -> out.
func linearDef() *Definition {
	return &Definition{
		ID:      "wf-linear",
		Name:    "linear",
		Inputs:  []Port{{Name: "in"}},
		Outputs: []Port{{Name: "out"}},
		Processors: []*Processor{
			{Name: "A", Service: "svcA", Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
			{Name: "B", Service: "svcB", Inputs: []Port{{Name: "x"}}, Outputs: []Port{{Name: "y"}}},
		},
		Links: []Link{
			{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: "A", Port: "x"}},
			{Source: Endpoint{Processor: "A", Port: "y"}, Target: Endpoint{Processor: "B", Port: "x"}},
			{Source: Endpoint{Processor: "B", Port: "y"}, Target: Endpoint{Port: "out"}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := Validate(linearDef()); err != nil {
		t.Fatalf("valid workflow rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Definition)
		want   string
	}{
		{"no name", func(d *Definition) { d.Name = "" }, "no name"},
		{"dup processor", func(d *Definition) { d.Processors = append(d.Processors, d.Processors[0]) }, "duplicate processor"},
		{"no service", func(d *Definition) { d.Processors[0].Service = "" }, "no service"},
		{"dup port", func(d *Definition) { d.Processors[0].Inputs = append(d.Processors[0].Inputs, Port{Name: "x"}) }, "duplicate port"},
		{"empty port", func(d *Definition) { d.Inputs = append(d.Inputs, Port{}) }, "empty name"},
		{"bad depth", func(d *Definition) { d.Inputs[0].Depth = 7 }, "unsupported depth"},
		{"bad source", func(d *Definition) { d.Links[0].Source.Port = "nope" }, "not a workflow input"},
		{"unknown source proc", func(d *Definition) { d.Links[1].Source.Processor = "ZZ" }, "unknown processor"},
		{"source not output", func(d *Definition) { d.Links[1].Source.Port = "x" }, "not an output port"},
		{"bad target", func(d *Definition) { d.Links[2].Target.Port = "nope" }, "not a workflow output"},
		{"unknown target proc", func(d *Definition) { d.Links[1].Target.Processor = "ZZ" }, "unknown processor"},
		{"target not input", func(d *Definition) { d.Links[1].Target.Port = "y" }, "not an input port"},
		{"double fan-in", func(d *Definition) {
			d.Links = append(d.Links, Link{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: "B", Port: "x"}})
		}, "multiple incoming"},
		{"unconnected input", func(d *Definition) { d.Links = d.Links[1:] }, "unconnected"},
		{"unconnected output", func(d *Definition) { d.Links = d.Links[:2] }, "unconnected"},
	}
	for _, tc := range cases {
		d := linearDef()
		tc.mutate(d)
		err := Validate(d)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v is not ErrInvalid", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateCycle(t *testing.T) {
	d := linearDef()
	// Feed B's output back into A: A.x is already fed by the workflow input,
	// so rewire A to take B's output instead.
	d.Links[0] = Link{Source: Endpoint{Processor: "B", Port: "y"}, Target: Endpoint{Processor: "A", Port: "x"}}
	err := Validate(d)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestTopoOrder(t *testing.T) {
	d := linearDef()
	order, err := topoOrder(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0].Name != "A" || order[1].Name != "B" {
		t.Fatalf("topo order = %v", []string{order[0].Name, order[1].Name})
	}
}

func TestQualityKeys(t *testing.T) {
	k := QualityKey("reputation")
	if k != "Q(reputation)" {
		t.Fatalf("QualityKey = %q", k)
	}
	if QualityDimension(k) != "reputation" {
		t.Fatalf("QualityDimension = %q", QualityDimension(k))
	}
	if QualityDimension("author") != "" {
		t.Fatal("non-quality key parsed as quality")
	}
	anns := []Annotation{
		{Key: "Q(reputation)", Value: "1"},
		{Key: "Q(availability)", Value: "0.9"},
		{Key: "author", Value: "renato"},
	}
	q := QualityAnnotations(anns)
	if len(q) != 2 || q["reputation"] != "1" || q["availability"] != "0.9" {
		t.Fatalf("QualityAnnotations = %v", q)
	}
}

func TestDefinitionCloneIsDeep(t *testing.T) {
	d := linearDef()
	d.Processors[0].Config = map[string]string{"url": "http://a"}
	d.AnnotateProcessor("A", "Q(reputation)", "1", "expert", time.Now())
	cp := d.Clone()
	cp.Processors[0].Config["url"] = "http://b"
	cp.Processors[0].Annotations[0].Value = "0"
	cp.Links[0].Source.Port = "mutated"
	if d.Processors[0].Config["url"] != "http://a" {
		t.Fatal("Clone shares Config")
	}
	if d.Processors[0].Annotations[0].Value != "1" {
		t.Fatal("Clone shares Annotations")
	}
	if d.Links[0].Source.Port != "in" {
		t.Fatal("Clone shares Links")
	}
}

func TestDataModel(t *testing.T) {
	s := Scalar("hello")
	if s.isList || s.String() != "hello" || s.Depth() != 0 || s.Len() != 1 {
		t.Fatalf("scalar = %+v", s)
	}
	l := List(Scalar("a"), Scalar("b"))
	if !l.isList || l.Depth() != 1 || l.Len() != 2 || l.String() != "[a, b]" {
		t.Fatalf("list = %+v depth=%d", l, l.Depth())
	}
	nested := List(List(Scalar("a")))
	if nested.Depth() != 2 {
		t.Fatalf("nested depth = %d", nested.Depth())
	}
	if List().Depth() != 1 {
		t.Fatalf("empty list depth = %d", List().Depth())
	}
}

func TestAnnotateHelpers(t *testing.T) {
	d := linearDef()
	when := time.Date(2013, 11, 12, 19, 58, 9, 0, time.UTC)
	if err := d.AnnotateProcessor("A", "Q(reputation)", "1", "expert", when); err != nil {
		t.Fatal(err)
	}
	if err := d.AnnotateProcessor("ZZ", "k", "v", "a", when); err == nil {
		t.Fatal("AnnotateProcessor on unknown processor succeeded")
	}
	p, _ := d.Processor("A")
	if len(p.Annotations) != 1 {
		t.Fatalf("processor annotations: %+v", p.Annotations)
	}
	if _, ok := p.InputPort("x"); !ok {
		t.Fatal("InputPort(x) missing")
	}
	if _, ok := p.OutputPort("zz"); ok {
		t.Fatal("OutputPort(zz) found")
	}
	if (Endpoint{Port: "p"}).String() != ":p" || (Endpoint{Processor: "A", Port: "p"}).String() != "A.p" {
		t.Fatal("Endpoint.String wrong")
	}
}
