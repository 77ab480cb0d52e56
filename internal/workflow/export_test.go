package workflow

import "testing"

// Hooks for the package's external tests (package workflow_test), which
// import internal/provenance — a package that imports this one.

// DecideScript is decideScript (decider_test.go).
func DecideScript(tb testing.TB, data []byte) []HistoryEvent { return decideScript(tb, data) }

// ResumeHistorySeeds is resumeHistorySeeds (fuzz_test.go).
func ResumeHistorySeeds(tb testing.TB) [][]byte { return resumeHistorySeeds(tb) }
