package workflow

import (
	"context"
	"testing"
)

// TestWorkerRegistryKeepsRecentExited: a long-lived registry keeps the rows
// of live workers and of the keptExited most recently exited ones, while its
// cumulative counters still count every worker any run started.
func TestWorkerRegistryKeepsRecentExited(t *testing.T) {
	const runs = 1000
	reg := NewRegistry()
	reg.Register("work", func(ctx context.Context, c Call) (map[string]Data, error) { return upperCall(ctx, c, false) })
	eng := NewEventEngine(reg)
	eng.Workers = 1
	eng.Stats = NewWorkerRegistry()
	for i := 0; i < runs; i++ {
		if _, err := eng.Resume(context.Background(), iterDef(0), itemList(1), "", nil); err != nil {
			t.Fatal(err)
		}
	}
	rows := eng.Stats.Snapshot()
	if len(rows) > keptExited {
		t.Fatalf("%d worker rows after %d runs, want at most %d", len(rows), runs, keptExited)
	}
	for _, w := range rows {
		if w.Alive {
			t.Errorf("worker %s of a finished run still alive", w.ID)
		}
	}
	// The newest exited worker's row is among those kept.
	if last := rows[len(rows)-1]; last.ID != "w-1000" || last.Tasks != 1 {
		t.Errorf("newest row = %+v, want w-1000 with one task", last)
	}
	c := eng.Stats.Counters()
	if c["workers.started"] != runs || c["workers.exited"] != runs || c["workers.tasks_total"] != runs {
		t.Errorf("counters = %v, want %d workers started, exited and tasks", c, runs)
	}
}
