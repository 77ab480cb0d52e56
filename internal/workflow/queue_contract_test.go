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

// TestQueueContractLeaseExpiry pins the lease-timeout contract: a dequeued
// task that is never acknowledged is redelivered —
// exactly once — to another dequeuer after the TTL, under the same attempt, and the
// original holder's late Ack is an idempotent no-op that cannot
// double-complete the stolen task.
func TestQueueContractLeaseExpiry(t *testing.T) {
	q := NewMemoryQueue()
	q.leaseTTL = 30 * time.Millisecond
	if err := q.Enqueue(task(0)); err != nil {
		t.Fatal(err)
	}
	// Dequeuer A takes the task and dies without acking.
	first, err := q.Dequeue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if q.InFlight() != 1 {
		t.Fatalf("inflight = %d, want 1", q.InFlight())
	}
	// Dequeuer B blocks; the expiry timer, not an enqueue, must wake
	// it with the reclaimed task.
	redelivered, err := q.Dequeue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if redelivered.ID != first.ID {
		t.Fatalf("redelivered ID %q, want %q", redelivered.ID, first.ID)
	}
	if redelivered.Attempt != first.Attempt {
		t.Fatalf("redelivered attempt = %d, want %d", redelivered.Attempt, first.Attempt)
	}
	q.Ack(redelivered.ID)
	// The original holder's lease is gone; its late ack and nack
	// must be no-ops — in particular the nack must NOT resurrect
	// the task the new holder already completed.
	q.Ack(first.ID)
	q.Nack(first.ID)
	// Exactly once: nothing left to deliver.
	if q.Depth() != 0 || q.InFlight() != 0 {
		t.Fatalf("leftovers: depth=%d inflight=%d", q.Depth(), q.InFlight())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := q.Dequeue(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired task delivered a second time: %v", err)
	}
}

// TestQueueContractExpiredAckCannotComplete pins the stolen-task half of the
// idempotency contract: once a lease has expired, the original holder's Ack
// arrives too late to complete the task — it is a no-op, and the task is
// still redelivered to the next dequeuer.
func TestQueueContractExpiredAckCannotComplete(t *testing.T) {
	q := NewMemoryQueue()
	q.leaseTTL = 20 * time.Millisecond
	if err := q.Enqueue(task(0)); err != nil {
		t.Fatal(err)
	}
	first, err := q.Dequeue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond) // lease expires, nothing reclaims yet
	q.Ack(first.ID)
	// The ack must not have consumed the task: it comes back.
	redelivered, err := q.Dequeue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if redelivered.ID != first.ID || redelivered.Attempt != first.Attempt {
		t.Fatalf("redelivered = %+v, want ID %q attempt %d", redelivered, first.ID, first.Attempt)
	}
	q.Ack(redelivered.ID)
	if q.InFlight() != 0 {
		t.Fatalf("new holder's ack did not complete the task: inflight=%d", q.InFlight())
	}
}

// TestQueueContractConcurrentLeaseStealers races two dequeuers for one
// expired lease: exactly one must win the reclaimed task, the other must
// still be empty-handed at its deadline. Runs under -race via the workflow
// package's slot in `make race`.
func TestQueueContractConcurrentLeaseStealers(t *testing.T) {
	q := NewMemoryQueue()
	q.leaseTTL = 100 * time.Millisecond
	if err := q.Enqueue(task(0)); err != nil {
		t.Fatal(err)
	}
	// The doomed holder takes the lease and never acks.
	first, err := q.Dequeue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wins := make(chan Task, 2)
	losses := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			tk, err := q.Dequeue(ctx)
			if err != nil {
				losses <- err
				return
			}
			// Ack inside the goroutine: the stolen lease carries the
			// TTL too, and it must not expire into the loser's hands
			// while the test inspects the winner.
			q.Ack(tk.ID)
			wins <- tk
		}()
	}
	var stolen Task
	select {
	case stolen = <-wins:
	case <-time.After(2 * time.Second):
		t.Fatal("no stealer won the expired lease")
	}
	if stolen.ID != first.ID || stolen.Attempt != first.Attempt {
		t.Fatalf("stolen = %+v, want ID %q attempt %d", stolen, first.ID, first.Attempt)
	}
	select {
	case dup := <-wins:
		t.Fatalf("both stealers won: second got %+v", dup)
	case err := <-losses:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("loser error = %v, want deadline exceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("losing stealer neither timed out nor returned")
	}
	if q.Depth() != 0 || q.InFlight() != 0 {
		t.Fatalf("leftovers: depth=%d inflight=%d", q.Depth(), q.InFlight())
	}
}

// TestQueueLeaseTTLZeroNeverExpires pins the default: with a zero leaseTTL a
// lease outlives any wait, so a slow worker is never double-delivered.
func TestQueueLeaseTTLZeroNeverExpires(t *testing.T) {
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

// TestQueueContractBatchLeaseExpires: tasks leased through DequeueElements
// carry the queue's lease TTL like any other delivery.
func TestQueueContractBatchLeaseExpires(t *testing.T) {
	q := NewMemoryQueue()
	q.leaseTTL = 5 * time.Millisecond
	q.Enqueue(task(0), task(1))
	if got := q.DequeueElements("P", 8); len(got) != 2 {
		t.Fatalf("leased %d, want 2", len(got))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		redelivered, err := q.Dequeue(ctx)
		if err != nil {
			t.Fatalf("expired batch lease never redelivered: %v", err)
		}
		if redelivered.Attempt != 0 {
			t.Fatalf("redelivered attempt = %d, want 0", redelivered.Attempt)
		}
	}
}
