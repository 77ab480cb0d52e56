package workflow

import (
	"context"
	"errors"
	"testing"
	"time"
)

func task(i int) Task {
	return Task{Activity: "P", Element: i, EnqueuedAt: time.Now()}
}

func TestQueueContractFIFO(t *testing.T) {
	q := NewMemoryQueue()
	for i := 0; i < 5; i++ {
		if err := q.Enqueue(task(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d := q.Depth(); d != 5 {
		t.Fatalf("depth = %d, want 5", d)
	}
	for i := 0; i < 5; i++ {
		got, err := q.Dequeue(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Element != i {
			t.Fatalf("dequeue %d: element %d, FIFO broken", i, got.Element)
		}
	}
	if q.Depth() != 0 {
		t.Fatalf("drained queue: depth=%d", q.Depth())
	}
}

// TestQueueContractLeaseAccounting: a dequeued task is its taker's alone.
// Depth counts only the ready tasks, and a taken task is never delivered
// again, however long its taker holds it.
func TestQueueContractLeaseAccounting(t *testing.T) {
	q := NewMemoryQueue()
	q.Enqueue(task(0), task(1))
	if _, err := q.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q.Depth() != 1 {
		t.Fatalf("after dequeue: depth=%d, want 1", q.Depth())
	}
	if second, err := q.Dequeue(context.Background()); err != nil || second.Element != 1 {
		t.Fatalf("second dequeue: %+v, %v", second, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if got, err := q.Dequeue(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a taken task came back: %+v, %v", got, err)
	}
	if q.Depth() != 0 {
		t.Fatalf("after draining: depth=%d", q.Depth())
	}
}

func TestQueueContractBlockingDequeue(t *testing.T) {
	q := NewMemoryQueue()
	got := make(chan Task, 1)
	go func() {
		tk, err := q.Dequeue(context.Background())
		if err == nil {
			got <- tk
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the dequeuer block
	if err := q.Enqueue(task(7)); err != nil {
		t.Fatal(err)
	}
	select {
	case tk := <-got:
		if tk.Element != 7 {
			t.Fatalf("woken dequeue got element %d", tk.Element)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("enqueue did not wake the blocked dequeue")
	}
}

func TestQueueContractDequeueHonoursContext(t *testing.T) {
	q := NewMemoryQueue()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := q.Dequeue(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestQueueContractCloseDrains(t *testing.T) {
	q := NewMemoryQueue()
	q.Enqueue(task(0))
	q.Close()
	if err := q.Enqueue(task(1)); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("enqueue after close: %v", err)
	}
	// Already-ready work still drains...
	if _, err := q.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}
	// ...then dequeue reports closure.
	if _, err := q.Dequeue(context.Background()); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("dequeue on drained closed queue: %v", err)
	}
}

func TestQueueContractConcurrentWorkers(t *testing.T) {
	q := NewMemoryQueue()
	const n = 64
	for i := 0; i < n; i++ {
		if err := q.Enqueue(task(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan int, n)
	for w := 0; w < 8; w++ {
		go func() {
			for {
				tk, err := q.Dequeue(context.Background())
				if err != nil {
					return
				}
				got <- tk.Element
			}
		}()
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		select {
		case e := <-got:
			if seen[e] {
				t.Fatalf("element %d delivered twice", e)
			}
			seen[e] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled after %d deliveries", i)
		}
	}
	q.Close()
	if q.Depth() != 0 {
		t.Fatalf("leftovers: depth=%d", q.Depth())
	}
}

// TestQueueContractDequeueElements: a batch takes the ready elements of one
// activity at their first attempt, in FIFO order and up to the limit, and
// leaves everything else ready and in order.
func TestQueueContractDequeueElements(t *testing.T) {
	q := NewMemoryQueue()
	other := Task{Activity: "Q", Element: 0}
	whole := Task{Activity: "P", Element: -1}
	retry := Task{Activity: "P", Element: 4, Attempt: 1}
	if err := q.Enqueue(task(0), other, task(1), whole, retry, task(2), task(3)); err != nil {
		t.Fatal(err)
	}
	head, err := q.Dequeue(context.Background())
	if err != nil || head.Element != 0 {
		t.Fatalf("head: %+v, %v", head, err)
	}
	got := q.DequeueElements("P", 2)
	if len(got) != 2 || got[0].Element != 1 || got[1].Element != 2 {
		t.Fatalf("took %+v, want elements 1 and 2 of P", got)
	}
	if q.Depth() != 4 {
		t.Fatalf("after the batch: depth=%d, want 4", q.Depth())
	}
	if more := q.DequeueElements("nope", 10); len(more) != 0 {
		t.Fatalf("took %+v for an activity with nothing ready", more)
	}
	var order []Task
	for q.Depth() > 0 {
		next, err := q.Dequeue(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, next)
	}
	want := []Task{other, whole, retry, task(3)}
	if len(order) != len(want) {
		t.Fatalf("drained %+v, want %+v", order, want)
	}
	for i, w := range want {
		if g := order[i]; g.Activity != w.Activity || g.Element != w.Element || g.Attempt != w.Attempt {
			t.Fatalf("drained %+v, want %+v", order, want)
		}
	}
}
