package provenance

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/storage"
	"repro/internal/workflow"
)

// This file is the repository side of crash recovery: persisting the engine
// history the Collector streams, listing the unfinished runs a crashed
// process left behind, and re-opening a run's write-behind persistence so a
// resumed execution appends to the stored prefix instead of starting over.

// historyKey renders "runID/seq" with the sequence zero-padded to eight
// digits, so a primary-key range scan yields a run's history in seq order.
// It is the persisted key format, so the rendering must never change: it is
// fmt's "%s/%08d" (TestHistoryKeyFormat), built at the cost of the one
// string allocation.
func historyKey(runID string, seq int) string {
	var d [24]byte
	i, v, width := len(d), uint64(seq), 8
	if seq < 0 {
		v, width = -v, 7 // the sign takes one column of the width
	}
	for v > 0 || len(d)-i < width {
		i--
		d[i] = byte('0' + v%10)
		v /= 10
	}
	if seq < 0 {
		i--
		d[i] = '-'
	}
	i--
	d[i] = '/'
	return runID + string(d[i:])
}

// appendHistoryRow appends a history row's cells to vals and its payload —
// the event's JSON (workflow.HistoryEvent.AppendJSON, byte-identical to
// json.Marshal) — to arena. The row aliases arena until the commit copies it
// (Apply retains no caller memory), so the writer reuses both across flushes.
func appendHistoryRow(vals []storage.Value, arena []byte, runID string, ev *workflow.HistoryEvent) ([]storage.Value, []byte, error) {
	start := len(arena)
	arena, err := ev.AppendJSON(arena)
	if err != nil {
		return vals, arena, fmt.Errorf("provenance: encode history event %d: %w", ev.Seq, err)
	}
	return append(vals,
		storage.S(historyKey(runID, ev.Seq)),
		storage.S(runID),
		storage.I(int64(ev.Seq)),
		storage.Bytes(arena[start:len(arena):len(arena)]),
	), arena, nil
}

func rowToHistoryEvent(row storage.Row) (workflow.HistoryEvent, error) {
	var ev workflow.HistoryEvent
	if err := json.Unmarshal(row.Get(historySchema, "payload").Raw(), &ev); err != nil {
		return ev, fmt.Errorf("provenance: decode history event %q: %w",
			row.Get(historySchema, "key").Str(), err)
	}
	return ev, nil
}

// History returns the persisted history prefix of a run in sequence order —
// the crash-consistent record resume-as-replay feeds back into the event
// engine. An unfinished run's history simply stops at the last event that
// reached storage before the crash.
func (r *Repository) History(runID string) ([]workflow.HistoryEvent, error) {
	if _, err := r.Run(runID); err != nil {
		return nil, err
	}
	out := []workflow.HistoryEvent{}
	var err error
	r.scanRun(historySchema, runID, runID+"/", func(row storage.Row) bool {
		var ev workflow.HistoryEvent
		if ev, err = rowToHistoryEvent(row); err == nil {
			out = append(out, ev)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	// Key order is seq order only up to the key's eight digits.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// UnfinishedRuns lists runs whose status still reads RunRunning — the
// unfinished markers left behind by crashed or killed processes. A live
// in-flight run also matches, so call this at startup, before new runs begin.
func (r *Repository) UnfinishedRuns() ([]RunInfo, error) {
	rows, err := r.db.Table(runsTable).Lookup("status", storage.S(string(RunRunning)))
	if err != nil {
		return nil, err
	}
	out := make([]RunInfo, 0, len(rows))
	for _, row := range rows {
		out = append(out, rowToInfo(row))
	}
	return out, nil
}

// NewResumeWriter re-opens write-behind persistence for an interrupted run:
// the writer picks up the history high-water mark, so replayed events are
// never stored twice and new ones append after the prefix, and the keys of
// any graph rows an older version streamed before the run was cut, which the
// final commit deletes before it writes the whole graph. The run-started
// delta of a resumed execution (if one arrives at all) updates the existing
// run row rather than inserting a second one.
func (r *Repository) NewResumeWriter(runID string, opts BatchWriterOptions) (*BatchWriter, error) {
	info, err := r.Run(runID)
	if err != nil {
		return nil, err
	}
	if info.Status != RunRunning {
		return nil, fmt.Errorf("provenance: run %q is %s, not resumable", runID, info.Status)
	}
	w := r.newWriter(opts)
	w.runID, w.runInserted, w.resume = runID, true, true
	for _, s := range []*storage.Schema{nodesSchema, edgesSchema} {
		r.scanRun(s, runID, runID+"/", func(row storage.Row) bool {
			w.stale = append(w.stale, storage.DeleteOp(s.Table, row.Get(s, "key")))
			return true
		})
	}
	r.scanRun(historySchema, runID, runID+"/", func(row storage.Row) bool {
		w.historySeq = max(w.historySeq, int(row.Get(historySchema, "seq").Int()))
		return true
	})
	go w.loop()
	return w, nil
}
