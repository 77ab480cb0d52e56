package workflow

import (
	"context"
	"errors"
	"testing"
	"time"
)

func task(i int) Task {
	return Task{ID: TaskID("run-q", "P", i), RunID: "run-q", Activity: "P", Element: i, EnqueuedAt: time.Now()}
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
		q.Ack(got.ID)
	}
	if q.Depth() != 0 || q.InFlight() != 0 {
		t.Fatalf("drained queue: depth=%d inflight=%d", q.Depth(), q.InFlight())
	}
}

func TestQueueContractLeaseAccounting(t *testing.T) {
	q := NewMemoryQueue()
	q.Enqueue(task(0))
	q.Enqueue(task(1))
	got, err := q.Dequeue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if q.Depth() != 1 || q.InFlight() != 1 {
		t.Fatalf("after dequeue: depth=%d inflight=%d", q.Depth(), q.InFlight())
	}
	q.Ack(got.ID)
	if q.InFlight() != 0 {
		t.Fatalf("after ack: inflight=%d", q.InFlight())
	}
	// Pinned: a double Ack (or an Ack/Nack of anything unleased) is
	// an idempotent no-op, not an error — and it must not disturb
	// the still-queued task.
	q.Ack(got.ID)
	q.Nack(got.ID)
	if q.Depth() != 1 || q.InFlight() != 0 {
		t.Fatalf("after idempotent no-ops: depth=%d inflight=%d, want 1/0", q.Depth(), q.InFlight())
	}
}

func TestQueueContractNackRedelivers(t *testing.T) {
	q := NewMemoryQueue()
	q.Enqueue(task(0))
	q.Enqueue(task(1))
	first, err := q.Dequeue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q.Nack(first.ID)
	// The nacked task moves to the tail under the same attempt: a redelivery
	// is not a retry.
	second, _ := q.Dequeue(context.Background())
	if second.Element != 1 {
		t.Fatalf("nacked task did not yield the head: got element %d", second.Element)
	}
	redelivered, _ := q.Dequeue(context.Background())
	if redelivered.ID != first.ID {
		t.Fatalf("redelivered ID %q, want %q", redelivered.ID, first.ID)
	}
	if redelivered.Attempt != first.Attempt {
		t.Fatalf("redelivered attempt = %d, want %d", redelivered.Attempt, first.Attempt)
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
	tk, err := q.Dequeue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q.Ack(tk.ID)
	// ...then dequeue reports closure.
	if _, err := q.Dequeue(context.Background()); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("dequeue on drained closed queue: %v", err)
	}
}

// TestQueueLeaseNeverExpires: a lease outlives any wait, so a slow worker is
// never double-delivered.
func TestQueueLeaseNeverExpires(t *testing.T) {
	q := NewMemoryQueue()
	q.Enqueue(task(0))
	first, err := q.Dequeue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if _, err := q.Dequeue(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unexpired lease redelivered: %v", err)
	}
	q.Ack(first.ID)
	if q.InFlight() != 0 {
		t.Fatalf("slow ack rejected: inflight=%d", q.InFlight())
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
				q.Ack(tk.ID)
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
	if q.Depth() != 0 || q.InFlight() != 0 {
		t.Fatalf("leftovers: depth=%d inflight=%d", q.Depth(), q.InFlight())
	}
}

// TestQueueContractDequeueElements: the batch lease takes the ready elements
// of one activity, in FIFO order and up to the limit, each under its own
// lease, and leaves everything else ready and in order.
func TestQueueContractDequeueElements(t *testing.T) {
	q := NewMemoryQueue()
	other := Task{ID: TaskID("run-q", "Q", 0), RunID: "run-q", Activity: "Q", Element: 0}
	whole := Task{ID: TaskID("run-q", "P", -1), RunID: "run-q", Activity: "P", Element: -1}
	if err := q.Enqueue(task(0), other, task(1), whole, task(2), task(3)); err != nil {
		t.Fatal(err)
	}
	head, err := q.Dequeue(context.Background())
	if err != nil || head.Element != 0 {
		t.Fatalf("head: %+v, %v", head, err)
	}
	got := q.DequeueElements("P", 2)
	if len(got) != 2 || got[0].Element != 1 || got[1].Element != 2 {
		t.Fatalf("leased %+v, want elements 1 and 2 of P", got)
	}
	if q.Depth() != 3 || q.InFlight() != 3 {
		t.Fatalf("after the batch lease: depth=%d inflight=%d, want 3/3", q.Depth(), q.InFlight())
	}
	if more := q.DequeueElements("nope", 10); len(more) != 0 {
		t.Fatalf("leased %+v for an activity with nothing ready", more)
	}
	// Leases are per task: ack one, hand the other two back together.
	q.Ack(got[0].ID)
	q.Nack(head.ID, got[1].ID)
	var order []string
	for q.Depth() > 0 {
		next, err := q.Dequeue(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, next.ID)
		if (next.ID == head.ID || next.ID == got[1].ID) && next.Attempt != 0 {
			t.Errorf("nacked %s redelivered with attempt %d", next.ID, next.Attempt)
		}
		q.Ack(next.ID)
	}
	want := []string{other.ID, whole.ID, task(3).ID, head.ID, got[1].ID}
	if len(order) != len(want) {
		t.Fatalf("drained %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drained %v, want %v", order, want)
		}
	}
	if q.InFlight() != 0 {
		t.Fatalf("inflight=%d after draining", q.InFlight())
	}
}
