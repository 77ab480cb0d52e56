package workflow

import (
	"context"
	"errors"
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
	Activity string
	Element  int // iteration index, or -1 for a single non-iterating call
	// Attempt is the retry ordinal the engine dispatched (0 for the first
	// attempt).
	Attempt    int
	EnqueuedAt time.Time
}

// MemoryQueue is a run's dispatch queue: a mutex-guarded in-process FIFO with
// a broadcast wake channel. It is deliberately not durable — a run's history
// is its only durable record, and resume re-enqueues exactly the tasks the
// history prefix does not hold. Every taker is one of the run's own pool
// workers, which live exactly as long as the run, so a dequeued task is the
// taker's alone: the queue keeps no record of it. Its contract, pinned by
// queue_contract_test.go:
//
//   - Enqueue appends to the tail; order of delivery is FIFO.
//   - DequeueElements takes the ready elements of one activity without
//     blocking, leaving every other ready task in place and in order.
//   - Dequeue blocks until a task is ready, the ctx is done, or the queue is
//     closed and drained. Each enqueued task is delivered exactly once.
//   - Close stops new enqueues immediately but lets Dequeue drain what is
//     already ready.
type MemoryQueue struct {
	mu     sync.Mutex
	ready  []Task
	closed bool
	wake   chan struct{} // closed-and-replaced to broadcast state changes
}

// NewMemoryQueue returns an empty in-memory task queue.
func NewMemoryQueue() *MemoryQueue {
	return &MemoryQueue{wake: make(chan struct{})}
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

// Dequeue takes the FIFO head, blocking until one is ready.
func (q *MemoryQueue) Dequeue(ctx context.Context) (Task, error) {
	for {
		q.mu.Lock()
		if len(q.ready) > 0 {
			t := q.ready[0]
			q.ready = q.ready[1:]
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

// DequeueElements takes, without blocking, up to max ready iteration
// elements of one activity at their first attempt — the companions a worker
// batches with an element it already holds (a retry runs alone). They leave
// the queue in FIFO order; every other ready task keeps its place.
func (q *MemoryQueue) DequeueElements(activity string, max int) []Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Task
	rest := q.ready[:0]
	for _, t := range q.ready {
		if len(out) < max && t.Activity == activity && t.Element >= 0 && t.Attempt == 0 {
			out = append(out, t)
			continue
		}
		rest = append(rest, t)
	}
	q.ready = rest
	return out
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
