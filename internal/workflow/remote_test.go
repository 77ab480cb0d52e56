package workflow

import (
	"context"
	"testing"
	"time"
)

// TestVanishedRemoteWorkerRedelivers: a remote worker takes a task and is
// never heard from again. The task's lease expires, an in-process worker
// runs it, and the run finishes with one iteration-element per index.
func TestVanishedRemoteWorkerRedelivers(t *testing.T) {
	const n = 8
	ghostHas := make(chan struct{})
	reg := NewRegistry()
	reg.Register("work", func(ctx context.Context, c Call) (map[string]Data, error) {
		<-ghostHas // the ghost takes a task before the pool drains the queue
		return upperCall(ctx, c, false)
	})
	eng := NewEventEngine(reg)
	eng.Workers = 2
	eng.remoteLease = 50 * time.Millisecond
	var ghost Task
	eng.Gateway = hookGateway{started: func(h *RunHandle) {
		go func() {
			defer close(ghostHas)
			if rt, err := h.Dequeue(context.Background(), "r-ghost"); err == nil {
				ghost = rt.Task
			}
		}()
	}}
	evs, listener := recordHistory()
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), iterDef(0), itemList(n), listener)
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
	if ghost.ID == "" {
		t.Fatal("the remote worker never took a task")
	}
	seen := map[int]int{}
	for _, ev := range *evs {
		if ev.Type == HistoryIterationElement {
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
