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
	// attempt). A redelivery — a Nack or an expired lease — hands the same
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
// history prefix does not hold. Its contract, pinned by
// queue_contract_test.go:
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
	leased map[string]memLease
	// leaseTTL bounds the leases Dequeue and DequeueElements take; zero, the
	// only value outside tests, means they never expire.
	leaseTTL time.Duration
	expiring int // leases with a non-zero deadline outstanding
	closed   bool
	wake     chan struct{} // closed-and-replaced to broadcast state changes
}

// memLease is one outstanding delivery; a zero expires never times out.
type memLease struct {
	t       Task
	expires time.Time
}

// NewMemoryQueue returns an empty in-memory task queue.
func NewMemoryQueue() *MemoryQueue {
	return &MemoryQueue{leased: make(map[string]memLease), wake: make(chan struct{})}
}

// reclaimLocked returns expired leases to the tail, exactly as a Nack would —
// the original holder's late Ack is then an idempotent no-op. Callers
// hold q.mu and have checked q.expiring > 0, keeping the no-TTL dispatch
// path free of clock reads and map sweeps. Reports whether anything was
// reclaimed.
func (q *MemoryQueue) reclaimLocked(now time.Time) bool {
	reclaimed := false
	for id, l := range q.leased {
		if l.expires.IsZero() || now.Before(l.expires) {
			continue
		}
		delete(q.leased, id)
		q.expiring--
		t := l.t
		t.EnqueuedAt = now
		q.ready = append(q.ready, t)
		reclaimed = true
	}
	return reclaimed
}

// nextExpiryLocked returns the earliest lease deadline, zero when no lease
// can expire. Callers hold q.mu.
func (q *MemoryQueue) nextExpiryLocked() time.Time {
	var min time.Time
	if q.expiring == 0 {
		return min
	}
	for _, l := range q.leased {
		if l.expires.IsZero() {
			continue
		}
		if min.IsZero() || l.expires.Before(min) {
			min = l.expires
		}
	}
	return min
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

// leaseLocked records one delivery of t, expiring after ttl when ttl > 0.
// Callers hold q.mu.
func (q *MemoryQueue) leaseLocked(t Task, ttl time.Duration) {
	l := memLease{t: t}
	if ttl > 0 {
		l.expires = time.Now().Add(ttl)
		q.expiring++
	}
	q.leased[t.ID] = l
}

// Dequeue leases the FIFO head, blocking until one is ready.
func (q *MemoryQueue) Dequeue(ctx context.Context) (Task, error) { return q.dequeue(ctx, 0) }

// dequeue is Dequeue under a lease of ttl; zero takes the queue's leaseTTL.
func (q *MemoryQueue) dequeue(ctx context.Context, ttl time.Duration) (Task, error) {
	for {
		q.mu.Lock()
		if q.expiring > 0 && q.reclaimLocked(time.Now()) {
			q.broadcastLocked() // other blocked dequeuers may take the rest
		}
		if len(q.ready) > 0 {
			t := q.ready[0]
			q.ready = q.ready[1:]
			if ttl == 0 {
				ttl = q.leaseTTL
			}
			q.leaseLocked(t, ttl)
			q.mu.Unlock()
			return t, nil
		}
		if q.closed {
			q.mu.Unlock()
			return Task{}, ErrQueueClosed
		}
		wake := q.wake
		expiry := q.nextExpiryLocked()
		q.mu.Unlock()
		var timer *time.Timer
		var timerC <-chan time.Time
		if !expiry.IsZero() {
			timer = time.NewTimer(time.Until(expiry))
			timerC = timer.C
		}
		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return Task{}, ctx.Err()
		case <-wake:
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// DequeueElements leases, without blocking, up to max ready iteration
// elements of one activity at their first attempt — the companions a worker
// batches with an element it already holds (a retry runs alone). They leave
// the queue in FIFO order, each under its own lease exactly as if Dequeue had
// delivered it, so Ack, Nack and lease expiry stay per task; every other
// ready task keeps its place.
func (q *MemoryQueue) DequeueElements(activity string, max int) []Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []Task
	rest := q.ready[:0]
	for _, t := range q.ready {
		if len(out) < max && t.Activity == activity && t.Element >= 0 && t.Attempt == 0 {
			q.leaseLocked(t, q.leaseTTL)
			out = append(out, t)
			continue
		}
		rest = append(rest, t)
	}
	q.ready = rest
	return out
}

// Ack completes a leased task. Acking a task this holder no longer leases — it
// was never dequeued, already acked, or the lease expired and the task now
// belongs to whoever reclaims it — is an idempotent no-op: the ownership
// transfer already happened and completing the stolen copy here would race
// the new holder. Redelivery of completed work is absorbed by the engine's
// per-task report dedup, not prevented at the queue.
func (q *MemoryQueue) Ack(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leased[id]
	if !ok {
		return
	}
	if !l.expires.IsZero() && !time.Now().Before(l.expires) {
		return // expired: the task is reclaimable, not completable
	}
	delete(q.leased, id)
	if !l.expires.IsZero() {
		q.expiring--
	}
}

// Nack returns leased tasks to the tail, in one operation — a
// dying worker hands back its whole lease together, so whoever picks it up
// finds it whole. Like Ack, nacking an unleased or expired task is an
// idempotent no-op — an expired lease is already on its way back to the tail
// via reclaim, and re-enqueueing it here would duplicate the delivery.
func (q *MemoryQueue) Nack(ids ...string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	returned := false
	for _, id := range ids {
		l, ok := q.leased[id]
		if !ok {
			continue
		}
		if !l.expires.IsZero() && !now.Before(l.expires) {
			continue // expired: reclaim owns the redelivery
		}
		delete(q.leased, id)
		if !l.expires.IsZero() {
			q.expiring--
		}
		t := l.t
		t.EnqueuedAt = now
		q.ready = append(q.ready, t)
		returned = true
	}
	if returned {
		q.broadcastLocked()
	}
}

// Depth counts ready (not yet dequeued) tasks.
func (q *MemoryQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ready)
}

// InFlight counts leased tasks.
func (q *MemoryQueue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.leased)
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
