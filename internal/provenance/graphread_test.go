package provenance_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/workflow"
)

// TestGraphReadWhileRunStreams reads a run's graph over and over while the
// run streams its history into storage one small commit after another,
// through one repository and through a 4-shard router. No read takes a
// snapshot: each Table call is atomic on its own. The graph is written in
// the one commit that ends the run, together with its status, and Graph
// reads the status first, so every read finds no run yet, an empty graph
// (the run is running), or exactly the final graph — never part of one.
func TestGraphReadWhileRunStreams(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) provenance.Repo
	}{
		{"repository", func(t *testing.T) provenance.Repo {
			db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			repo, err := provenance.NewRepository(db)
			if err != nil {
				t.Fatal(err)
			}
			return repo
		}},
		{"router-4-shards", func(t *testing.T) provenance.Repo {
			c, err := shard.Open(t.TempDir(), shard.Options{Shards: 4, Sync: storage.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c.Provenance()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { graphReadWhileRunStreams(t, tc.open(t)) })
	}
}

func graphReadWhileRunStreams(t *testing.T, repo provenance.Repo) {
	// The run ID is minted up front so readers can ask for it before the
	// run row exists; Resume with no history is a fresh run under that ID.
	runID := workflow.MintRunID("")
	col := provenance.NewCollector("curator")
	w, err := repo.RunWriter(provenance.BatchWriterOptions{MaxBatch: 1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	col.AddSink(w)

	done := make(chan struct{})
	// Per reader, the distinct non-empty graphs it read.
	seen := make([]map[string]bool, 4)
	var wg sync.WaitGroup
	for r := range seen {
		seen[r] = map[string]bool{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			found := false
			for {
				finished := false
				select {
				case <-done:
					finished = true // this read starts after the run's last commit
				default:
				}
				g, err := repo.Graph(runID)
				switch {
				case err == nil:
					found = true
					if g.NodeCount() > 0 || g.EdgeCount() > 0 {
						seen[r][string(canonicalXML(t, g))] = true
					}
				case errors.Is(err, provenance.ErrRunNotFound) && !found && !finished:
				default:
					t.Errorf("reader %d: Graph = %v (run row seen before: %v)", r, err, found)
					return
				}
				if finished {
					return
				}
			}
		}()
	}

	names := make([]workflow.Data, 24)
	for i := range names {
		names[i] = workflow.Scalar(fmt.Sprintf(" Hyla name%02d ", i))
	}
	_, runErr := workflow.NewEventEngine(streamRegistry()).Resume(context.Background(), streamDef(),
		map[string]workflow.Data{"names": workflow.List(names...)}, runID, nil, col)
	closeErr := w.Close()
	close(done)
	wg.Wait()
	if runErr != nil || closeErr != nil {
		t.Fatalf("run = %v, close = %v", runErr, closeErr)
	}
	if m := w.Metrics(); m.Batches < 50 {
		t.Fatalf("%d commits; the run must stream in many small ones", m.Batches)
	}
	want := string(canonicalXML(t, col.Graph()))
	for r, graphs := range seen {
		if len(graphs) != 1 || !graphs[want] {
			for got := range graphs {
				if got != want {
					t.Fatalf("reader %d read a graph other than the final one:\n%s\nwant:\n%s", r, got, want)
				}
			}
			t.Fatalf("reader %d never read the final graph", r)
		}
	}
}

// canonicalXML serializes g with edge times cut to the microsecond a stored
// time keeps, so a collector's graph compares equal to its stored copy.
func canonicalXML(t *testing.T, g *opm.Graph) []byte {
	t.Helper()
	c := opm.NewGraph()
	for _, n := range g.Nodes() {
		if err := c.AddNode(*n); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Edges() {
		e.Time = e.Time.Truncate(time.Microsecond)
		if err := c.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return opm.MarshalXML(c)
}

// streamDef is a two-step name check iterated over a list, so one run
// appends dozens of history events and ends with a graph of per-element
// artifacts and derivation edges.
func streamDef() *workflow.Definition {
	return &workflow.Definition{
		ID: "wf-stream", Name: "Streamed name check",
		Inputs:  []workflow.Port{{Name: "names"}},
		Outputs: []workflow.Port{{Name: "status"}},
		Processors: []*workflow.Processor{
			{Name: "Normalize", Service: "normalize",
				Inputs:  []workflow.Port{{Name: "raw"}},
				Outputs: []workflow.Port{{Name: "clean"}}},
			{Name: "Resolve", Service: "resolve",
				Inputs:  []workflow.Port{{Name: "name"}},
				Outputs: []workflow.Port{{Name: "status"}}},
		},
		Links: []workflow.Link{
			{Source: workflow.Endpoint{Port: "names"}, Target: workflow.Endpoint{Processor: "Normalize", Port: "raw"}},
			{Source: workflow.Endpoint{Processor: "Normalize", Port: "clean"}, Target: workflow.Endpoint{Processor: "Resolve", Port: "name"}},
			{Source: workflow.Endpoint{Processor: "Resolve", Port: "status"}, Target: workflow.Endpoint{Port: "status"}},
		},
	}
}

func streamRegistry() *workflow.Registry {
	reg := workflow.NewRegistry()
	reg.Register("normalize", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		return map[string]workflow.Data{"clean": workflow.Scalar(strings.TrimSpace(c.Input("raw").String()))}, nil
	})
	reg.Register("resolve", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		return map[string]workflow.Data{"status": workflow.Scalar(c.Input("name").String() + "=accepted")}, nil
	})
	return reg
}
