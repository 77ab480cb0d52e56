package main

import (
	"testing"
	"time"
)

func TestDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	if got := dueTime(start, 100, 250).Sub(start); got != 2500*time.Millisecond {
		t.Errorf("operation 250 at 100/s is due after %v, want 2.5s", got)
	}
}

// A stalled operation must not move the schedule: its successors stay due
// when they were, so the stall shows up as their lateness (and, because
// latency is measured from the due time, in their latency).
func TestOpenLoopKeepsDueTimesAcrossAStall(t *testing.T) {
	const rate, stall = 100, 35 * time.Millisecond
	start := time.Now()
	var dues []time.Time
	lags := openLoop(start, rate, 6, 1, func(i int, due time.Time) {
		dues = append(dues, due)
		if i == 1 {
			time.Sleep(stall)
		}
	})
	if len(dues) != 6 {
		t.Fatalf("open loop sent %d operations, want 6", len(dues))
	}
	for i, due := range dues {
		if want := dueTime(start, rate, i); !due.Equal(want) {
			t.Errorf("operation %d was handed due time %v, want %v", i, due.Sub(start), want.Sub(start))
		}
	}
	// Operation 2 was due 10 ms after operation 1 and left when the 35 ms
	// stall ended; operation 5, due 40 ms after operation 1, is on time again.
	if lags[2] < 20*time.Millisecond {
		t.Errorf("operation behind the stall left %v late, want at least 20ms", lags[2])
	}
	if lags[0] > 5*time.Millisecond || lags[5] > 5*time.Millisecond {
		t.Errorf("operations clear of the stall left %v and %v late", lags[0], lags[5])
	}
	for i, lag := range lags {
		if lag < 0 {
			t.Errorf("operation %d left %v before it was due", i, -lag)
		}
	}
}
