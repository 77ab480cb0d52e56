package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/storage"
)

// SpanStore is the persisted per-run span table: a finished run's span tree
// is written once, keyed by run ID, and stays queryable forever next to the
// run's OPM graph in the same database. Spans are stored in end order with a
// monotonically increasing per-run sequence, so appends from a resumed run
// continue after the crash-session prefix.
type SpanStore struct {
	db *storage.DB
}

const spansTable = "trace_spans"

var spansSchema = storage.MustSchema(spansTable,
	storage.Column{Name: "key", Kind: storage.KindString}, // run/seq
	storage.Column{Name: "run_id", Kind: storage.KindString},
	storage.Column{Name: "span_id", Kind: storage.KindString},
	storage.Column{Name: "parent_id", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "name", Kind: storage.KindString},
	storage.Column{Name: "kind", Kind: storage.KindString, Nullable: true},
	storage.Column{Name: "start", Kind: storage.KindTime},
	storage.Column{Name: "end", Kind: storage.KindTime},
	storage.Column{Name: "attrs", Kind: storage.KindBytes, Nullable: true},
)

// ErrTraceNotFound is returned for run IDs with no persisted spans.
var ErrTraceNotFound = errors.New("telemetry: trace not found")

// NewSpanStore opens (creating if needed) the span table in db. The table
// has no run_id index: its keys are "runID/seq", so a run's spans are one
// primary-key range (scanRun). A table an earlier version created keeps the
// run_id index it made; storage maintains it and nothing reads it.
func NewSpanStore(db *storage.DB) (*SpanStore, error) {
	if db.Table(spansTable) == nil {
		if err := db.CreateTable(spansSchema); err != nil {
			return nil, err
		}
	}
	return &SpanStore{db: db}, nil
}

// scanRun walks the run's spans in stored order from sequence number from
// on. A run ID holds no "/" (Append refuses one), so the run's keys are one
// range and the walk stops at the first row of another run; fn returning
// false stops it sooner.
func (s *SpanStore) scanRun(runID string, from int, fn func(storage.Row) bool) {
	s.db.Table(spansTable).ScanFrom(storage.S(spanKeyOf(runID, from)), func(row storage.Row) bool {
		return row.Get(spansSchema, "run_id").Str() == runID && fn(row)
	})
}

// maxSpanSeq is the highest sequence spanKeyOf renders in its eight digits.
// Keys past it no longer sort by sequence, so SpansPage reads nothing after
// it.
const maxSpanSeq = 99999999

// spanKeyOf renders "runID/seq" with the sequence zero-padded to eight
// digits — the persisted key format, so the rendering must never change.
func spanKeyOf(runID string, seq int) string {
	if seq < 0 || seq > maxSpanSeq {
		return fmt.Sprintf("%s/%08d", runID, seq) // out-of-range: defer to fmt's widening
	}
	var d [9]byte
	d[0] = '/'
	v := seq
	for i := 8; i >= 1; i-- {
		d[i] = byte('0' + v%10)
		v /= 10
	}
	return runID + string(d[:])
}

// Count reports how many spans are persisted for the run.
func (s *SpanStore) Count(runID string) (int, error) {
	n := 0
	s.scanRun(runID, 0, func(storage.Row) bool {
		n++
		return true
	})
	return n, nil
}

// Append persists spans under runID, continuing the run's sequence after any
// rows already stored (a resumed run's spans land after the crash-session
// prefix). Every span is stamped with the run as its trace ID. One atomic
// group commit.
func (s *SpanStore) Append(runID string, spans []Span) error {
	switch {
	case runID == "":
		return fmt.Errorf("telemetry: spans need a run ID")
	case strings.Contains(runID, "/"):
		return fmt.Errorf("telemetry: run ID %q contains %q", runID, "/")
	}
	if len(spans) == 0 {
		return nil
	}
	seq, err := s.Count(runID)
	if err != nil {
		return err
	}
	ops := make([]storage.Op, 0, len(spans))
	for _, sp := range spans {
		sp.TraceID = runID
		row, err := spanRow(runID, seq, sp)
		if err != nil {
			return err
		}
		ops = append(ops, storage.InsertOp(spansTable, row))
		seq++
	}
	return s.db.Apply(ops...)
}

func spanRow(runID string, seq int, sp Span) (storage.Row, error) {
	attrs, err := encodeAttrs(sp.Attrs)
	if err != nil {
		return nil, err
	}
	return storage.Row{
		storage.S(spanKeyOf(runID, seq)),
		storage.S(runID),
		storage.S(sp.SpanID),
		storage.S(sp.ParentID),
		storage.S(sp.Name),
		storage.S(sp.Kind),
		storage.T(sp.Start),
		storage.T(sp.End),
		storage.Bytes(attrs),
	}, nil
}

func rowToSpan(row storage.Row) (Span, error) {
	attrs, err := decodeAttrs(row.Get(spansSchema, "attrs").Raw())
	if err != nil {
		return Span{}, err
	}
	return Span{
		TraceID:  row.Get(spansSchema, "run_id").Str(),
		SpanID:   row.Get(spansSchema, "span_id").Str(),
		ParentID: row.Get(spansSchema, "parent_id").Str(),
		Name:     row.Get(spansSchema, "name").Str(),
		Kind:     row.Get(spansSchema, "kind").Str(),
		Start:    row.Get(spansSchema, "start").Time(),
		End:      row.Get(spansSchema, "end").Time(),
		Attrs:    attrs,
	}, nil
}

// Spans loads the run's full span list in stored (end) order.
func (s *SpanStore) Spans(runID string) ([]Span, error) {
	out, _, err := s.SpansPage(runID, -1, 0)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrTraceNotFound, runID)
	}
	return out, nil
}

// SpansPage returns up to limit spans with sequence number strictly greater
// than after (-1 starts at the beginning; limit <= 0 means no limit), in
// stored order, plus the cursor for the next page (-1 when exhausted). Rows
// are read by primary-key range, never a table scan. A cursor at or past the
// last sequence reads an empty page.
func (s *SpanStore) SpansPage(runID string, after, limit int) ([]Span, int, error) {
	var out []Span
	next := -1
	if after >= maxSpanSeq {
		return out, next, nil
	}
	seq := after
	var scanErr error
	s.scanRun(runID, after+1, func(row storage.Row) bool {
		if limit > 0 && len(out) == limit {
			next = seq
			return false
		}
		sp, err := rowToSpan(row)
		if err != nil {
			scanErr = err
			return false
		}
		out = append(out, sp)
		seq++
		return true
	})
	if scanErr != nil {
		return nil, -1, scanErr
	}
	return out, next, nil
}

// TraceNode is one span with its children — the tree form of a trace.
type TraceNode struct {
	Span     Span         `json:"span"`
	Children []*TraceNode `json:"children,omitempty"`
}

// BuildTree arranges spans into parent/child trees. Returns the roots
// (spans with no parent) and any orphans — spans whose parent is absent
// from the set, which a complete trace never has. Children are ordered by
// start time; roots and orphans by start time too.
func BuildTree(spans []Span) (roots []*TraceNode, orphans []Span) {
	nodes := make(map[string]*TraceNode, len(spans))
	for i := range spans {
		nodes[spans[i].SpanID] = &TraceNode{Span: spans[i]}
	}
	for i := range spans {
		sp := spans[i]
		n := nodes[sp.SpanID]
		switch {
		case sp.ParentID == "":
			roots = append(roots, n)
		default:
			parent, ok := nodes[sp.ParentID]
			if !ok {
				orphans = append(orphans, sp)
				continue
			}
			parent.Children = append(parent.Children, n)
		}
	}
	byStart := func(ns []*TraceNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Span.Start.Before(ns[j].Span.Start) })
	}
	byStart(roots)
	for _, n := range nodes {
		byStart(n.Children)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].Start.Before(orphans[j].Start) })
	return roots, orphans
}

// attr encoding: length-prefixed key/value pairs via the storage row codec,
// in sorted key order so stored spans are deterministic.
func encodeAttrs(m map[string]string) ([]byte, error) {
	if len(m) == 0 {
		return nil, nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	row := make(storage.Row, 0, len(m)*2)
	for _, k := range keys {
		row = append(row, storage.S(k), storage.S(m[k]))
	}
	return storage.EncodeRow(nil, row), nil
}

// decodeAttrs reads exactly what encodeAttrs writes: no bytes for no
// attributes, otherwise a non-empty string map.
func decodeAttrs(blob []byte) (map[string]string, error) {
	if len(blob) == 0 {
		return nil, nil
	}
	m, err := storage.DecodeStringMap(blob)
	if err == nil && len(m) == 0 {
		err = errors.New("no attributes are stored as no bytes")
	}
	if err != nil {
		return nil, fmt.Errorf("telemetry: decode attrs: %w", err)
	}
	return m, nil
}

// StampTrace sets TraceID on every span — used once the run ID is known
// (the engine mints run IDs after the tracer is created).
func StampTrace(spans []Span, traceID string) {
	for i := range spans {
		spans[i].TraceID = traceID
	}
}

// DetachExternalParents clears ParentID on spans whose parent is absent from
// the set. A run traced under an API request span records the request as its
// root's parent; persisted alone under the run ID, the run's own root must
// stand as the tree root. Broken in-run propagation still surfaces: it
// produces multiple roots, which TreeComplete rejects.
func DetachExternalParents(spans []Span) {
	ids := make(map[string]struct{}, len(spans))
	for i := range spans {
		ids[spans[i].SpanID] = struct{}{}
	}
	for i := range spans {
		if spans[i].ParentID == "" {
			continue
		}
		if _, ok := ids[spans[i].ParentID]; !ok {
			spans[i].ParentID = ""
		}
	}
}

// TreeComplete verifies the spans form one connected tree: exactly one root
// and no orphans. Returns a descriptive error otherwise — the check behind
// the "no orphan spans" acceptance test.
func TreeComplete(spans []Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("telemetry: empty trace")
	}
	roots, orphans := BuildTree(spans)
	if len(orphans) > 0 {
		return fmt.Errorf("telemetry: %d orphan spans (first: %s %q parent %s)",
			len(orphans), orphans[0].SpanID, orphans[0].Name, orphans[0].ParentID)
	}
	if len(roots) != 1 {
		return fmt.Errorf("telemetry: %d roots, want 1", len(roots))
	}
	return nil
}
