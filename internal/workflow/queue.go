package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrQueueClosed is returned by Enqueue after Close, and by Dequeue once the
// queue is closed AND drained (remaining ready tasks are still handed out
// after Close so in-flight runs can finish their tail).
var ErrQueueClosed = errors.New("workflow: task queue closed")

// Task is one unit of activity work pulled by a worker: a single invocation
// of a processor's service — either one iteration element (Element >= 0) or
// the whole non-iterating call (Element == -1).
type Task struct {
	ID       string // stable across redeliveries: runID/activity#element
	RunID    string
	Activity string
	Element  int // iteration index, or -1 for a single non-iterating call
	// Attempt is the retry ordinal the engine dispatched (0 for the first
	// attempt). A redelivery — a killed worker's Nack — hands the same
	// attempt to another holder.
	Attempt    int
	EnqueuedAt time.Time
}

// TaskID builds the stable task identifier for an activity element.
func TaskID(runID, activity string, element int) string {
	return fmt.Sprintf("%s/%s#%d", runID, activity, element)
}

// MemoryQueue is a run's dispatch queue: a mutex-guarded in-process FIFO with
// a broadcast wake channel. It is deliberately not durable — a run's history
// is its only durable record, and resume re-enqueues exactly the tasks the
// history prefix does not hold. Every holder is one of the run's own pool
// workers, so a lease lasts until its holder acks or nacks it: it never
// expires. Its contract, pinned by queue_contract_test.go:
//
//   - Enqueue appends to the tail; order of delivery is FIFO.
//   - DequeueElements leases the ready elements of one activity without
//     blocking, leaving every other ready task in place and in order.
//   - Dequeue blocks until a task is ready, the ctx is done, or the queue is
//     closed and drained. A dequeued task is leased (counted by InFlight)
//     until Ack or Nack.
//   - Ack removes a leased task permanently; Nack returns leased tasks to the
//     tail, unchanged.
//   - Depth counts ready (not yet dequeued) tasks; InFlight counts leased.
//   - Close stops new enqueues immediately but lets Dequeue drain what is
//     already ready.
type MemoryQueue struct {
	mu     sync.Mutex
	ready  []Task
	leased map[string]Task
	closed bool
	wake   chan struct{} // closed-and-replaced to broadcast state changes
}

// NewMemoryQueue returns an empty in-memory task queue.
func NewMemoryQueue() *MemoryQueue {
	return &MemoryQueue{leased: make(map[string]Task), wake: make(chan struct{})}
}

// broadcastLocked wakes every blocked Dequeue. Callers hold q.mu.
func (q *MemoryQueue) broadcastLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// Enqueue appends ts to the tail in one operation — one lock, one wake-up,
// however many tasks; ErrQueueClosed after Close.
func (q *MemoryQueue) Enqueue(ts ...Task) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	for _, t := range ts {
		if t.EnqueuedAt.IsZero() {
			t.EnqueuedAt = time.Now()
		}
		q.ready = append(q.ready, t)
	}
	q.broadcastLocked()
	return nil
}

// Dequeue leases the FIFO head, blocking until one is ready.
func (q *MemoryQueue) Dequeue(ctx context.Context) (Task, error) {
	for {
		q.mu.Lock()
		if len(q.ready) > 0 {
			t := q.ready[0]
			q.ready = q.ready[1:]
			q.leased[t.ID] = t
			q.mu.Unlock()
			return t, nil
		}
		if q.closed {
			q.mu.Unlock()
			return Task{}, ErrQueueClosed
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return Task{}, ctx.Err()
		case <-wake:
		}
	}
}

// DequeueElements leases, without blocking, up to max ready iteration
// elements of one activity at their first attempt — the companions a worker
// batches with an element it already holds (a retry runs alone). They leave
// the queue in FIFO order, each under its own lease exactly as if Dequeue had
// delivered it, so Ack and Nack stay per task; every other ready task keeps
// its place.
func (q *MemoryQueue) DequeueElements(activity string, max int) []Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Task
	rest := q.ready[:0]
	for _, t := range q.ready {
		if len(out) < max && t.Activity == activity && t.Element >= 0 && t.Attempt == 0 {
			q.leased[t.ID] = t
			out = append(out, t)
			continue
		}
		rest = append(rest, t)
	}
	q.ready = rest
	return out
}

// Ack completes a leased task. Acking a task that is not leased — it was
// never dequeued, or is already acked or nacked — is an idempotent no-op.
func (q *MemoryQueue) Ack(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.leased, id)
}

// Nack returns leased tasks to the tail, in one operation — a killed worker
// hands back its whole lease together, so whoever picks it up finds it
// whole. Like Ack, nacking a task that is not leased is an idempotent no-op:
// re-enqueueing it would deliver it twice.
func (q *MemoryQueue) Nack(ids ...string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	returned := false
	for _, id := range ids {
		t, ok := q.leased[id]
		if !ok {
			continue
		}
		delete(q.leased, id)
		t.EnqueuedAt = now
		q.ready = append(q.ready, t)
		returned = true
	}
	if returned {
		q.broadcastLocked()
	}
}

// Close stops new enqueues; ready tasks still drain.
func (q *MemoryQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		q.broadcastLocked()
	}
}
