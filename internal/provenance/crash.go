package provenance

import "sync"

// CrashSink simulates a process crash for fault-injection tests and the
// chaos experiment: it forwards the first `after` deltas — history events,
// the first carrying the run row — to the wrapped sink, then fires the
// onCrash callback once and silently discards every later delta, including
// the run's end. What the inner sink received is exactly the history prefix
// a real kill would leave behind, so a run cut this way reads back Status ==
// RunRunning, with its history up to the cut and no graph.
//
// onCrash is called from inside Emit (under the Collector's lock); it must
// not call back into the collector. Cancelling the run's context is the
// intended use — it aborts the execution the way a dying process would.
type CrashSink struct {
	inner   Sink
	after   int
	onCrash func()

	mu      sync.Mutex
	seen    int
	crashed bool
}

// NewCrashSink wraps inner, cutting the stream after `after` deltas (after
// < 1 cuts before the first delta). onCrash may be nil.
func NewCrashSink(inner Sink, after int, onCrash func()) *CrashSink {
	return &CrashSink{inner: inner, after: after, onCrash: onCrash}
}

// Emit implements Sink.
func (s *CrashSink) Emit(d Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil
	}
	if s.seen >= s.after {
		s.crashed = true
		if s.onCrash != nil {
			s.onCrash()
		}
		return nil
	}
	s.seen++
	return s.inner.Emit(d)
}

// Crashed reports whether the cut already happened.
func (s *CrashSink) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Forwarded returns how many deltas reached the inner sink.
func (s *CrashSink) Forwarded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}
