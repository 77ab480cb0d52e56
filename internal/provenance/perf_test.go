package provenance

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/opm"
	"repro/internal/storage"
	"repro/internal/workflow"
)

func perfNode() opm.Node {
	return opm.Node{
		ID:    "proc-extract",
		Kind:  opm.KindProcess,
		Label: "extract",
		Value: "csv",
	}
}

func perfEdge() opm.Edge {
	return opm.Edge{
		Kind:   opm.Used,
		Effect: "proc-extract",
		Cause:  "art-input",
		Role:   "in",
		Time:   time.Unix(1700000000, 0),
	}
}

func perfAnnotations() map[string]string {
	return map[string]string{
		"rows":     "1024",
		"checksum": "sha256:deadbeef",
		"format":   "csv",
	}
}

// TestDeltaEncodeAllocs guards the encoding of the delta that ends a run, the
// one commit that writes its graph: with the writer's scratch warm, building
// a real run's final rows — the terminal history row, every node and edge row
// of its graph, the run-status update — costs at most one allocation per row,
// its key string, which the stored row keeps. The bound is on the marginal
// row: two run sizes share the commit's constant cost (the graph's sorted
// node list and edge copy), so their difference is what the rows themselves
// cost.
func TestDeltaEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	build := func(names int) (allocs float64, rows int) {
		col, _ := capturedRun(t, names)
		g, info := col.Graph(), col.Info()
		end := workflow.HistoryEvent{Seq: 999, Type: workflow.HistoryRunFinished, RunID: info.RunID, Status: "completed"}
		var b rowBuilder
		commit := func() {
			b.reset()
			if err := b.history(info.RunID, &end); err != nil {
				t.Fatal(err)
			}
			b.graph(info.RunID, g)
			b.run(storage.UpdateOp, info)
		}
		commit() // warm every arena once so steady state is measured
		return testing.AllocsPerRun(20, commit), len(b.ops)
	}
	small, smallRows := build(8)
	large, largeRows := build(64)
	if perRow := (large - small) / float64(largeRows-smallRows); perRow > 1 {
		t.Fatalf("final commit allocates %.2f per row (%.0f for %d rows, %.0f for %d), want <= 1",
			perRow, small, smallRows, large, largeRows)
	}
}

// TestRowEncodeAllocs pins the codec itself at zero: re-encoding a prebuilt
// row into a warm buffer performs no allocation at all.
func TestRowEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	row := storage.Row(appendRunRow(nil, RunInfo{
		RunID: "run-000001", WorkflowID: "wf-1", WorkflowName: "perf",
		StartedAt: time.Unix(1700000000, 0), Status: RunRunning,
	}))
	buf := storage.EncodeRow(nil, row)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = storage.EncodeRow(buf[:0], row)
	}); allocs != 0 {
		t.Fatalf("EncodeRow allocates %.1f/op, want 0", allocs)
	}
}

// TestEdgeKeyFormat pins the cheap edge-key renderer to fmt's "%s/%06d".
func TestEdgeKeyFormat(t *testing.T) {
	cases := map[int]string{
		0:       "r1/000000",
		7:       "r1/000007",
		123456:  "r1/123456",
		999999:  "r1/999999",
		1000000: "r1/1000000",
		-3:      "r1/-00003",
	}
	for seq, want := range cases {
		if got, viaFmt := edgeKey("r1", seq), fmt.Sprintf("r1/%06d", seq); got != viaFmt || got != want {
			t.Errorf("edgeKey(r1, %d) = %q, want %q (fmt renders %q)", seq, got, want, viaFmt)
		}
	}
}

// TestHistoryKeyFormat pins the history-key renderer to fmt's "%s/%08d".
func TestHistoryKeyFormat(t *testing.T) {
	for _, seq := range []int{0, 7, 207, 12345678, 99999999, 100000000, -1, -3, -1234567, -12345678,
		math.MaxInt64, math.MinInt64} {
		if got, want := historyKey("run-000042", seq), fmt.Sprintf("run-000042/%08d", seq); got != want {
			t.Errorf("historyKey(run-000042, %d) = %q, want %q", seq, got, want)
		}
	}
}

// completedEvent is an activity-completed event of a detection run, as the
// engine records it: the collected per-name results of Catalog_of_life, each
// a JSON datum — quotes, and an HTML-significant character, to escape.
func completedEvent() workflow.HistoryEvent {
	return workflow.HistoryEvent{
		Seq:        205,
		Type:       workflow.HistoryActivityCompleted,
		Time:       time.Date(2014, 3, 31, 14, 2, 7, 123456789, time.UTC),
		RunID:      "run-000042",
		Activity:   "Catalog_of_life",
		Service:    "col.resolve",
		Worker:     "w0",
		Iterations: 2,
		Outputs: map[string]workflow.Data{"result": workflow.List(
			workflow.Scalar(`{"name":"Hyla faber","status":"accepted"}`),
			workflow.Scalar(`{"name":"Elachistocleis ovalis","status":"provisionally accepted","reference":"Caramaschi <2010>"}`),
		)},
		Duration: 3 * time.Millisecond,
	}
}

// TestHistoryRowGolden pins one real history row's stored payload to its
// literal bytes: the format every stored history is read back in.
func TestHistoryRowGolden(t *testing.T) {
	ev := completedEvent()
	vals, _, err := appendHistoryRow(nil, []byte("stale"), "run-000042", &ev)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"seq":205,"type":"activity-completed","time":"2014-03-31T14:02:07.123456789Z","run_id":"run-000042",` +
		`"activity":"Catalog_of_life","service":"col.resolve","worker":"w0","iterations":2,` +
		`"outputs":{"result":["{\"name\":\"Hyla faber\",\"status\":\"accepted\"}",` +
		`"{\"name\":\"Elachistocleis ovalis\",\"status\":\"provisionally accepted\",\"reference\":\"Caramaschi \u003c2010\u003e\"}"]},` +
		`"duration":3000000}`
	row := storage.Row(vals)
	if got := string(row.Get(historySchema, "payload").Raw()); got != want {
		t.Errorf("payload\n got %s\nwant %s", got, want)
	}
	if key := row.Get(historySchema, "key").Str(); key != "run-000042/00000205" {
		t.Errorf("key %q", key)
	}
	back, err := rowToHistoryEvent(row)
	if err != nil || back.Outputs["result"].String() != ev.Outputs["result"].String() || !back.Time.Equal(ev.Time) {
		t.Errorf("payload does not read back: %+v, %v", back, err)
	}
}

// TestHistoryRowAllocs guards the history half of the flush: with the
// writer's value and payload arenas warm, a history row costs one
// allocation, its key string, which the stored row keeps.
func TestHistoryRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ev := completedEvent()
	const perRun = 16
	var (
		vals  []storage.Value
		arena []byte
		err   error
	)
	fill := func() {
		vals, arena = vals[:0], arena[:0]
		for i := 0; i < perRun; i++ {
			ev.Seq = i
			if vals, arena, err = appendHistoryRow(vals, arena, "run-000042", &ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill() // warm both arenas
	if allocs := testing.AllocsPerRun(100, fill) / perRun; allocs > 1 {
		t.Fatalf("history row encode allocates %.2f per event, want <= 1", allocs)
	}
}

// encodeAnnotations is the reference annotation encoding every stored blob
// is in: the pairs in sorted key order, length-prefixed through the row
// codec.
func encodeAnnotations(m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	row := make(storage.Row, 0, len(m)*2)
	for _, k := range keys {
		row = append(row, storage.S(k), storage.S(m[k]))
	}
	return storage.EncodeRow(nil, row)
}

// TestAnnEncoderMatchesEncodeAnnotations proves the pooled encoder is
// byte-identical to the reference encoding for every shape of map, including
// reuse across differently-sized maps.
func TestAnnEncoderMatchesEncodeAnnotations(t *testing.T) {
	var enc annEncoder
	maps := []map[string]string{
		nil,
		{},
		{"a": "1"},
		perfAnnotations(),
		{"z": "last", "a": "first", "m": "mid"},
	}
	for round := 0; round < 2; round++ { // second round exercises buffer reuse
		enc.Reset()
		for i, m := range maps {
			want := encodeAnnotations(m)
			if got := enc.Encode(m); !bytes.Equal(got, want) {
				t.Errorf("round %d map %d: annEncoder %x, encodeAnnotations %x", round, i, got, want)
			}
		}
	}
}

// BenchmarkDeltaEncode measures the per-node cost of the commit that ends a
// run: annotation blob, arena row, encoded bytes.
func BenchmarkDeltaEncode(b *testing.B) {
	n := perfNode()
	ann := perfAnnotations()
	var enc annEncoder
	vals := make([]storage.Value, 0, 16)
	var rowBuf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		blob := enc.Encode(ann)
		vals = appendNodeRow(vals[:0], "run-000001", n, blob)
		rowBuf = storage.EncodeRow(rowBuf[:0], storage.Row(vals))
	}
	_ = rowBuf
}

// BenchmarkEdgeRowEncode measures the per-edge cost of the same commit (key
// render, arena row, encoded bytes).
func BenchmarkEdgeRowEncode(b *testing.B) {
	e := perfEdge()
	vals := make([]storage.Value, 0, 16)
	var rowBuf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals = appendEdgeRow(vals[:0], "run-000001", i&0xffff, e)
		rowBuf = storage.EncodeRow(rowBuf[:0], storage.Row(vals))
	}
	_ = rowBuf
}
