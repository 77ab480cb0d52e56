package main

import (
	"fmt"
	"math/rand"
)

// verify checks, on the reopened system, what the epoch stored: every run the
// server acknowledged is listed exactly once and completed, every
// asynchronous run reported the reference counts (synchronous ones were
// checked on their response), and the stored provenance graphs of ten seeded
// runs are legal OPM.
func verify(st *stack, d *driver, seed int64) error {
	acked := d.ackedRuns()
	if len(acked) == 0 {
		return fmt.Errorf("verify: no run was acknowledged")
	}
	seen, status, err := d.scanRuns()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	for _, id := range acked {
		if seen[id] != 1 {
			return fmt.Errorf("verify: run %s listed %d times, want once", id, seen[id])
		}
		if status[id] != "completed" {
			return fmt.Errorf("verify: run %s is %q after reopen, want completed", id, status[id])
		}
		if st.spec.Schedulers > 0 {
			out, ok := st.outcome(id)
			if !ok {
				return fmt.Errorf("verify: run %s completed without reporting an outcome", id)
			}
			if out.counts != st.want {
				return fmt.Errorf("verify: run %s reported %+v, want %+v", id, out.counts, st.want)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10; i++ {
		id := acked[rng.Intn(len(acked))]
		g, err := st.sys.Provenance.Graph(id)
		if err != nil {
			return fmt.Errorf("verify: graph of %s: %w", id, err)
		}
		if g.NodeCount() == 0 {
			return fmt.Errorf("verify: graph of %s is empty", id)
		}
		if violations := g.CheckLegality(); len(violations) > 0 {
			return fmt.Errorf("verify: graph of %s breaks OPM legality: %s", id, violations[0])
		}
	}
	return nil
}
