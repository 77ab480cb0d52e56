package workflow

import (
	"testing"
	"time"
)

// Hooks for the package's external tests (package workflow_test), which
// import internal/provenance and internal/cluster — packages that import
// this one.

// SetRemoteLease shortens the lease of tasks handed out through
// RunHandle.Dequeue.
func SetRemoteLease(e *EventEngine, d time.Duration) { e.remoteLease = d }

// DecideScript is decideScript (decider_test.go).
func DecideScript(tb testing.TB, data []byte) []HistoryEvent { return decideScript(tb, data) }

// ResumeHistorySeeds is resumeHistorySeeds (fuzz_test.go).
func ResumeHistorySeeds(tb testing.TB) [][]byte { return resumeHistorySeeds(tb) }
