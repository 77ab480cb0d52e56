package adapter

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/workflow"
)

func testDef() *workflow.Definition {
	return &workflow.Definition{
		ID: "wf-t", Name: "t",
		Inputs:  []workflow.Port{{Name: "in"}},
		Outputs: []workflow.Port{{Name: "out"}},
		Processors: []*workflow.Processor{
			{Name: "Catalog_of_life", Service: "col.resolve",
				Inputs:  []workflow.Port{{Name: "x"}},
				Outputs: []workflow.Port{{Name: "y"}}},
		},
		Links: []workflow.Link{
			{Source: workflow.Endpoint{Port: "in"}, Target: workflow.Endpoint{Processor: "Catalog_of_life", Port: "x"}},
			{Source: workflow.Endpoint{Processor: "Catalog_of_life", Port: "y"}, Target: workflow.Endpoint{Port: "out"}},
		},
	}
}

func TestAddQualityAnnotations(t *testing.T) {
	def := testDef()
	when := time.Date(2013, 11, 12, 19, 58, 9, 0, time.UTC)
	inst, err := AddQualityAnnotations(def, "Catalog_of_life",
		map[string]string{"reputation": "1", "availability": "0.9"}, "expert", when)
	if err != nil {
		t.Fatal(err)
	}
	// Original untouched.
	orig, _ := def.Processor("Catalog_of_life")
	if len(orig.Annotations) != 0 {
		t.Fatal("original definition mutated")
	}
	p, _ := inst.Processor("Catalog_of_life")
	q := workflow.QualityAnnotations(p.Annotations)
	if q["reputation"] != "1" || q["availability"] != "0.9" {
		t.Fatalf("annotations = %v", q)
	}
	// Deterministic order: availability sorts before reputation.
	if p.Annotations[0].Key != "Q(availability)" {
		t.Fatalf("annotation order: %v", p.Annotations)
	}
	// Serialized form matches Listing 1 content.
	blob, err := workflow.MarshalXML(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "Q(reputation): 1;") {
		t.Fatal("Listing-1 syntax missing from XML")
	}
	// Unknown processor.
	if _, err := AddQualityAnnotations(def, "Nope", map[string]string{"a": "1"}, "x", when); err == nil {
		t.Fatal("unknown processor accepted")
	}
}

// Snapshot, which only the tests read, returns a copy of all observations keyed by service name.
func (p *Probe) Snapshot() map[string]Observation {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]Observation, len(p.obs))
	for k, v := range p.obs {
		out[k] = *v
	}
	return out
}

func TestProbeInstrumentation(t *testing.T) {
	reg := workflow.NewRegistry()
	calls := 0
	reg.Register("col.resolve", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		calls++
		if c.Input("x").String() == "bad" {
			return nil, errors.New("resolution failed")
		}
		return map[string]workflow.Data{"y": workflow.Scalar("ok:" + c.Input("x").String())}, nil
	})
	reg.Register("unrelated", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		return nil, nil
	})
	probe := NewProbe()
	def := testDef()
	ireg, err := probe.Instrument(def, reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"col.resolve", "unrelated"} {
		if _, ok := ireg.Lookup(name); !ok {
			t.Fatalf("instrumented registry lost %q", name)
		}
	}
	eng := workflow.NewEventEngine(ireg)
	// A successful run over a 3-element list: 3 invocations.
	if _, err := eng.Resume(context.Background(), def, map[string]workflow.Data{
		"in": workflow.List(workflow.Scalar("a"), workflow.Scalar("b"), workflow.Scalar("c")),
	}, "", nil); err != nil {
		t.Fatal(err)
	}
	// A failing run.
	if _, err := eng.Resume(context.Background(), def, map[string]workflow.Data{
		"in": workflow.Scalar("bad"),
	}, "", nil); err == nil {
		t.Fatal("failing run succeeded")
	}
	snap := probe.Snapshot()
	o := snap["col.resolve"]
	if o.Invocations != 4 || o.Failures != 1 {
		t.Fatalf("observation = %+v", o)
	}
	if o.OutputBytes == 0 {
		t.Fatal("output bytes not counted")
	}
	if o.TotalLatency < 0 {
		t.Fatal("negative latency")
	}
}

// TestProbeCountsBatchedInvocations: the probe's observations must not depend
// on which form of a service the engine ran — a batch call over n elements is
// n invocations, each slot succeeding or failing on its own.
func TestProbeCountsBatchedInvocations(t *testing.T) {
	resolve := func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		if c.Input("x").String() == "bad" {
			return nil, errors.New("resolution failed")
		}
		return map[string]workflow.Data{"y": workflow.Scalar("ok:" + c.Input("x").String())}, nil
	}
	batches := 0
	reg := workflow.NewRegistry()
	reg.RegisterBatch("col.resolve", resolve, func(ctx context.Context, calls []workflow.Call) []workflow.CallResult {
		batches++
		out := make([]workflow.CallResult, len(calls))
		for i, c := range calls {
			out[i].Outputs, out[i].Err = resolve(ctx, c)
		}
		return out
	})
	probe := NewProbe()
	def := testDef()
	ireg, err := probe.Instrument(def, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ireg.LookupBatch("col.resolve"); !ok {
		t.Fatal("instrumentation dropped the batch form")
	}
	_, err = workflow.NewEventEngine(ireg).Resume(context.Background(), def, map[string]workflow.Data{
		"in": workflow.List(workflow.Scalar("a"), workflow.Scalar("bad"), workflow.Scalar("c"), workflow.Scalar("d")),
	}, "", nil)
	if err == nil {
		t.Fatal("run with a failing element succeeded")
	}
	if batches != 1 {
		t.Fatalf("batch form ran %d times, want 1", batches)
	}
	o := probe.Snapshot()["col.resolve"]
	if o.Invocations != 4 || o.Failures != 1 || o.OutputBytes != int64(len("ok:a")*3) {
		t.Fatalf("observation = %+v, want 4 invocations, 1 failure", o)
	}
}

func TestProbeInstrumentMissingService(t *testing.T) {
	probe := NewProbe()
	if _, err := probe.Instrument(testDef(), workflow.NewRegistry()); err == nil {
		t.Fatal("missing service accepted")
	}
}
