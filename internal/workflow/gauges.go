package workflow

import "sync/atomic"

// DispatchGauges counts the dispatch work of every run of the engines that
// share it, for the /metrics bridge: tasks ready in a run queue, tasks a
// worker holds, and tasks finished. One is shared process-wide (core.System
// owns it); the engine's methods are safe on a nil receiver, so an engine
// can run unobserved.
type DispatchGauges struct {
	depth, inFlight, tasksTotal atomic.Int64
}

// enqueued counts n tasks entering a run queue.
func (g *DispatchGauges) enqueued(n int) {
	if g != nil {
		g.depth.Add(int64(n))
	}
}

// taken moves n tasks from a run queue into a worker's hands.
func (g *DispatchGauges) taken(n int) {
	if g != nil {
		g.depth.Add(-int64(n))
		g.inFlight.Add(int64(n))
	}
}

// done counts n tasks a worker finished: reported, run or drained.
func (g *DispatchGauges) done(n int) {
	if g != nil {
		g.inFlight.Add(-int64(n))
		g.tasksTotal.Add(int64(n))
	}
}

// Counters exports the gauges as flat observation counters: the "queue.*"
// dispatch gauges and the cumulative "workers.tasks_total".
func (g *DispatchGauges) Counters() map[string]float64 {
	return map[string]float64{
		"queue.depth":         float64(g.depth.Load()),
		"queue.in_flight":     float64(g.inFlight.Load()),
		"workers.tasks_total": float64(g.tasksTotal.Load()),
	}
}
