package workflow

import (
	"context"
	"fmt"
	"testing"
)

// benchTask builds a representative dispatch task.
func benchTask(i int) Task {
	return Task{
		ID:       TaskID("bench-run", "Resolve", i),
		RunID:    "bench-run",
		Activity: "Resolve",
		Element:  i,
	}
}

// BenchmarkQueueDispatch measures one full dispatch cycle — Enqueue, Dequeue,
// Ack — through the run queue. This is the per-task overhead the worker pool
// adds on top of the service call itself. (The "memory" sub-benchmark name is
// the one the committed BENCH_<pr>.json trajectory tracks.)
func BenchmarkQueueDispatch(b *testing.B) {
	b.Run("memory", func(b *testing.B) {
		q := NewMemoryQueue()
		defer q.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := q.Enqueue(benchTask(i)); err != nil {
				b.Fatal(err)
			}
			got, err := q.Dequeue(ctx)
			if err != nil {
				b.Fatal(err)
			}
			q.Ack(got.ID)
		}
	})
}

// benchHistoryEvent is a representative mid-run event: an iteration element
// completing with a scalar output, the most common event in a detection run.
func benchHistoryEvent(i int) HistoryEvent {
	return HistoryEvent{
		Type:     HistoryIterationElement,
		Activity: "Resolve",
		Service:  "Catalog_of_life",
		Element:  i,
		Outputs:  map[string]Data{"resolved": Scalar(fmt.Sprintf("Hyla faber %d", i))},
	}
}

// BenchmarkHistoryAppend measures the two costs of the history stream: the
// decider's append (stamp sequence/time/run identity, fold the event) plus the
// driver's fan-out to listeners, and the JSON encoding the provenance layer
// pays to persist each event (AppendJSON into a reused payload buffer).
func BenchmarkHistoryAppend(b *testing.B) {
	b.Run("stamp-fanout", func(b *testing.B) {
		var last HistoryEvent
		def := &Definition{ID: "wf-bench", Name: "Bench", Processors: []*Processor{{Name: "Resolve"}}}
		r := &eventRun{listeners: []HistoryListener{HistoryListenerFunc(func(ev HistoryEvent) { last = ev })}}
		var d *decider
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				// A fresh decider now and then keeps the fold's element
				// traces from growing with b.N.
				d = newDecider(def, "bench-run", nil)
				d.nextSeq = i
			}
			d.evs = d.evs[:0]
			d.emit(benchHistoryEvent(i))
			r.perform(d.evs, nil)
		}
		if last.Seq != b.N-1 {
			b.Fatalf("listener saw seq %d, want %d", last.Seq, b.N-1)
		}
	})
	b.Run("json-encode", func(b *testing.B) {
		ev := benchHistoryEvent(0)
		ev.Seq, ev.RunID, ev.WorkflowID, ev.WorkflowName = 7, "bench-run", "wf-bench", "Bench"
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = ev.AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
