package workflow_test

import (
	"testing"

	"repro/internal/provenance"
	"repro/internal/workflow"
)

// FuzzDecide drives the decider with byte-chosen report orders, outcomes,
// duplicate deliveries and resume cuts (workflow.DecideScript checks the
// history invariants), then folds the history it made through the
// provenance Collector: the graph must be legal OPM.
func FuzzDecide(f *testing.F) {
	for _, seed := range workflow.ResumeHistorySeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		col := provenance.NewCollector("fuzz")
		for _, ev := range workflow.DecideScript(t, data) {
			col.OnHistoryEvent(ev)
		}
		if problems := col.Graph().CheckLegality(); len(problems) > 0 {
			t.Fatalf("history folds to an illegal graph: %v", problems)
		}
	})
}
