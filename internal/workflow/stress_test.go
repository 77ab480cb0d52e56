package workflow

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestEngineWideFanOutStress runs a wide diamond — one source feeding many
// parallel processors joined by a collector — to shake out scheduling races
// (run under -race in CI).
func TestEngineWideFanOutStress(t *testing.T) {
	const width = 60
	reg := NewRegistry()
	var calls int64
	reg.Register("work", func(_ context.Context, c Call) (map[string]Data, error) {
		atomic.AddInt64(&calls, 1)
		return map[string]Data{"y": Scalar(strings.ToUpper(c.Input("x").String()))}, nil
	})
	reg.Register("join", func(_ context.Context, c Call) (map[string]Data, error) {
		total := 0
		for i := 0; i < width; i++ {
			total += c.Input(fmt.Sprintf("in%d", i)).Len()
		}
		return map[string]Data{"out": Scalar(fmt.Sprintf("%d", total))}, nil
	})

	join := &Processor{Name: "Join", Service: "join", Outputs: []Port{{Name: "out"}}}
	d := &Definition{
		ID: "wf-stress", Name: "stress",
		Inputs:  []Port{{Name: "in", Depth: 1}},
		Outputs: []Port{{Name: "out"}},
	}
	for i := 0; i < width; i++ {
		name := fmt.Sprintf("W%02d", i)
		d.Processors = append(d.Processors, &Processor{
			Name: name, Service: "work",
			Inputs:  []Port{{Name: "x"}}, // scalar: iterates over the list input
			Outputs: []Port{{Name: "y"}},
		})
		join.Inputs = append(join.Inputs, Port{Name: fmt.Sprintf("in%d", i), Depth: 1})
		d.Links = append(d.Links,
			Link{Source: Endpoint{Port: "in"}, Target: Endpoint{Processor: name, Port: "x"}},
			Link{Source: Endpoint{Processor: name, Port: "y"}, Target: Endpoint{Processor: "Join", Port: fmt.Sprintf("in%d", i)}},
		)
	}
	d.Processors = append(d.Processors, join)
	d.Links = append(d.Links, Link{Source: Endpoint{Processor: "Join", Port: "out"}, Target: Endpoint{Port: "out"}})

	items := make([]Data, 25)
	for i := range items {
		items[i] = Scalar(fmt.Sprintf("item%02d", i))
	}
	var events int64
	eng := NewEventEngine(reg)
	eng.Workers = 8

	for round := 0; round < 5; round++ {
		atomic.StoreInt64(&calls, 0)
		res, err := eng.Resume(context.Background(), d, map[string]Data{"in": List(items...)}, "", nil,
			HistoryListenerFunc(func(HistoryEvent) { atomic.AddInt64(&events, 1) }))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Outputs["out"].String(); got != fmt.Sprintf("%d", width*len(items)) {
			t.Fatalf("round %d: out = %q", round, got)
		}
		if atomic.LoadInt64(&calls) != int64(width*len(items)+0) {
			t.Fatalf("round %d: %d work calls", round, calls)
		}
	}
	if atomic.LoadInt64(&events) == 0 {
		t.Fatal("no events observed")
	}
}
