package workflow_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/provenance"
	"repro/internal/workflow"
)

// FuzzDecide drives the decider with byte-chosen report orders, outcomes,
// duplicate deliveries and resume cuts (workflow.DecideScript checks the
// history invariants), then folds the history it made through the
// provenance Collector: the graph must be legal OPM.
func FuzzDecide(f *testing.F) {
	for _, seed := range workflow.ResumeHistorySeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		col := provenance.NewCollector("fuzz")
		for _, ev := range workflow.DecideScript(t, data) {
			col.OnHistoryEvent(ev)
		}
		if problems := col.Graph().CheckLegality(); len(problems) > 0 {
			t.Fatalf("history folds to an illegal graph: %v", problems)
		}
	})
}

// TestVanishedRemoteWorkerRedeliversOverHTTP is the cross-process case: a
// worker takes a task through cluster.Server's /cluster/v1/dequeue and never
// reports — it died, or the response never reached it. The lease expires,
// the pool runs the task, and the run finishes with one iteration-element
// per index.
func TestVanishedRemoteWorkerRedeliversOverHTTP(t *testing.T) {
	const n = 8
	stats := workflow.NewWorkerRegistry()
	gw := cluster.NewServer(stats)
	srv := httptest.NewServer(gw)
	defer srv.Close()

	ghostHas := make(chan struct{})
	reg := workflow.NewRegistry()
	reg.Register("work", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		<-ghostHas // the ghost takes a task before the pool drains the queue
		return map[string]workflow.Data{"y": workflow.Scalar(strings.ToUpper(c.Input("x").String()))}, nil
	})
	eng := workflow.NewEventEngine(reg)
	eng.Workers = 2
	eng.Stats = stats
	eng.Gateway = gw
	workflow.SetRemoteLease(eng, 50*time.Millisecond)

	var ghost struct {
		Task workflow.Task `json:"task"`
	}
	go func() {
		defer close(ghostHas)
		resp, err := http.Post(srv.URL+"/cluster/v1/dequeue", "application/json", strings.NewReader(`{"worker":"ghost","wait_ms":5000}`))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&ghost)
		}
	}()

	def := &workflow.Definition{
		ID: "wf-fan", Name: "fan",
		Inputs:  []workflow.Port{{Name: "in", Depth: 1}},
		Outputs: []workflow.Port{{Name: "out", Depth: 1}},
		Processors: []*workflow.Processor{
			{Name: "A", Service: "work", Inputs: []workflow.Port{{Name: "x"}}, Outputs: []workflow.Port{{Name: "y"}}},
		},
		Links: []workflow.Link{
			{Source: workflow.Endpoint{Port: "in"}, Target: workflow.Endpoint{Processor: "A", Port: "x"}},
			{Source: workflow.Endpoint{Processor: "A", Port: "y"}, Target: workflow.Endpoint{Port: "out"}},
		},
	}
	names := make([]workflow.Data, n)
	for i := range names {
		names[i] = workflow.Scalar(fmt.Sprintf("item%02d", i))
	}
	var evs []workflow.HistoryEvent
	record := workflow.HistoryListenerFunc(func(ev workflow.HistoryEvent) { evs = append(evs, ev) })
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), def, map[string]workflow.Data{"in": workflow.List(names...)}, record)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run wedged on the vanished worker's task")
	}
	if ghost.Task.ID == "" {
		t.Fatal("the remote worker never took a task")
	}
	seen := map[int]int{}
	for _, ev := range evs {
		if ev.Type == workflow.HistoryIterationElement {
			seen[ev.Element]++
			if ev.Worker == "r-ghost" {
				t.Errorf("element %d credited to the vanished worker", ev.Element)
			}
		}
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("element %d has %d iteration-element events", i, seen[i])
		}
	}
}
