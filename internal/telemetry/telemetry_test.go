package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{2 * time.Microsecond, 2},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{time.Millisecond, 10},             // 1000µs in [512, 1024)
		{time.Second, 20},                  // 1e6 µs in [2^19, 2^20)
		{100 * time.Hour, HistBuckets - 1}, // clamped to top bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}
	// 100 samples at 100µs, 10 at ~10ms: p50 lands in the 100µs bucket,
	// p99 in the 10ms bucket.
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	p50 := s.Quantile(0.50)
	if p50 < 64 || p50 > 128 {
		t.Errorf("p50 = %v µs, want within [64, 128)", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 8192 || p99 > 16384 {
		t.Errorf("p99 = %v µs, want within [8192, 16384]", p99)
	}
	if max := s.Quantile(1); max > float64(s.MaxUS) {
		t.Errorf("p100 = %v exceeds observed max %d", max, s.MaxUS)
	}
	if mean := s.MeanUS(); mean < 100 || mean > 2000 {
		t.Errorf("mean = %v µs out of plausible range", mean)
	}
	c := s.Counters("x")
	for _, k := range []string{"x.count", "x.mean_us", "x.max_us", "x.p50_us", "x.p95_us", "x.p99_us"} {
		if _, ok := c[k]; !ok {
			t.Errorf("Counters missing %q", k)
		}
	}
	if c["x.count"] != 110 {
		t.Errorf("x.count = %v, want 110", c["x.count"])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

func TestTracerParenting(t *testing.T) {
	tr := NewTracer(0)
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "run", "core")
	ctx2, child := StartSpan(ctx1, "processor", "engine")
	_, grand := StartSpan(ctx2, "element", "engine")
	grand.SetAttr("index", "0")
	grand.Finish()
	child.Finish()
	root.Finish()
	root.Finish() // double-finish records once

	spans := tr.Since(0)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// End order: grand, child, root.
	if spans[0].Name != "element" || spans[1].Name != "processor" || spans[2].Name != "run" {
		t.Fatalf("unexpected order: %v %v %v", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[2].ParentID != "" {
		t.Errorf("root has parent %q", spans[2].ParentID)
	}
	if spans[1].ParentID != spans[2].SpanID {
		t.Errorf("child parent = %q, want %q", spans[1].ParentID, spans[2].SpanID)
	}
	if spans[0].ParentID != spans[1].SpanID {
		t.Errorf("grandchild parent = %q, want %q", spans[0].ParentID, spans[1].SpanID)
	}
	if spans[0].Attrs["index"] != "0" {
		t.Errorf("attr lost: %v", spans[0].Attrs)
	}
	if err := TreeComplete(spans); err != nil {
		t.Errorf("TreeComplete: %v", err)
	}
}

func TestStartSpanWithoutTracer(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "x", "y")
	if sp != nil {
		t.Fatalf("expected nil span without tracer")
	}
	sp.SetAttr("a", "b") // must not panic
	sp.Finish()
	if ctx != context.Background() {
		t.Fatalf("context should be unchanged")
	}
}

func TestTracerCapAndSince(t *testing.T) {
	tr := NewTracer(2)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 4; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("s%d", i), "k")
		sp.Finish()
	}
	if got := tr.Len(); got != 2 {
		t.Fatalf("len = %d, want 2 (capped)", got)
	}
	since := tr.Since(1)
	if len(since) != 1 || since[0].Name != "s1" {
		t.Fatalf("Since(1) = %+v", since)
	}
}

// FuzzDecodeAttrs: arbitrary bytes never panic decodeAttrs, and whatever it
// decodes encodeAttrs writes back byte for byte — it accepts only what the
// encoder can have written.
func FuzzDecodeAttrs(f *testing.F) {
	seed, err := encodeAttrs(map[string]string{"name": "Hyla faber", "cache": "hit", "": ""})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(seed)
	f.Add(storage.EncodeRow(nil, storage.Row{storage.I(1), storage.I(2), storage.S("k"), storage.Null()}))
	f.Add(storage.EncodeRow(nil, storage.Row{storage.S("k"), storage.S("1"), storage.S("k"), storage.S("2")}))
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := decodeAttrs(blob)
		if err != nil {
			return
		}
		got, err := encodeAttrs(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("%x decodes to %q, which encodes to %x", blob, m, got)
		}
	})
}

func TestBuildTreeOrphans(t *testing.T) {
	spans := []Span{
		{SpanID: "a", Name: "root"},
		{SpanID: "b", ParentID: "a"},
		{SpanID: "c", ParentID: "ghost"},
	}
	roots, orphans := BuildTree(spans)
	if len(roots) != 1 || len(orphans) != 1 {
		t.Fatalf("roots=%d orphans=%d, want 1/1", len(roots), len(orphans))
	}
	if err := TreeComplete(spans); err == nil {
		t.Fatalf("TreeComplete should fail with an orphan")
	}
}

func openStore(t *testing.T) (*storage.DB, *SpanStore) {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := NewSpanStore(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, st
}

func testSpans(n int, base time.Time) []Span {
	out := make([]Span, n)
	for i := range out {
		out[i] = Span{
			SpanID: fmt.Sprintf("s-%06d", i+1),
			Name:   fmt.Sprintf("op-%d", i),
			Kind:   "engine",
			Start:  base.Add(time.Duration(i) * time.Millisecond),
			End:    base.Add(time.Duration(i+1) * time.Millisecond),
			Attrs:  map[string]string{"index": fmt.Sprint(i)},
		}
		if i > 0 {
			out[i].ParentID = out[0].SpanID
		}
	}
	return out
}

func TestSpanStoreRoundTrip(t *testing.T) {
	_, st := openStore(t)
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	in := testSpans(5, base)
	if err := st.Append("run-000001", in); err != nil {
		t.Fatal(err)
	}
	out, err := st.Spans("run-000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d spans, want 5", len(out))
	}
	for i, sp := range out {
		if sp.TraceID != "run-000001" {
			t.Errorf("span %d trace ID = %q", i, sp.TraceID)
		}
		if sp.SpanID != in[i].SpanID || sp.Name != in[i].Name || sp.Kind != in[i].Kind {
			t.Errorf("span %d mismatch: %+v vs %+v", i, sp, in[i])
		}
		if !sp.Start.Equal(in[i].Start) || !sp.End.Equal(in[i].End) {
			t.Errorf("span %d times drifted", i)
		}
		if sp.Attrs["index"] != fmt.Sprint(i) {
			t.Errorf("span %d attrs = %v", i, sp.Attrs)
		}
	}
	if err := TreeComplete(out); err != nil {
		t.Errorf("stored tree incomplete: %v", err)
	}
	if _, err := st.Spans("run-999999"); err == nil {
		t.Fatalf("missing run should error")
	}
}

func TestSpanStoreAppendContinues(t *testing.T) {
	_, st := openStore(t)
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	all := testSpans(6, base)
	if err := st.Append("run-000002", all[:4]); err != nil {
		t.Fatal(err)
	}
	// Resume session appends more spans under the same run.
	if err := st.Append("run-000002", all[4:]); err != nil {
		t.Fatal(err)
	}
	n, err := st.Count("run-000002")
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("count = %d, want 6", n)
	}
	out, err := st.Spans("run-000002")
	if err != nil {
		t.Fatal(err)
	}
	if out[4].SpanID != all[4].SpanID || out[5].SpanID != all[5].SpanID {
		t.Fatalf("resumed spans out of order: %v %v", out[4].SpanID, out[5].SpanID)
	}
}

func TestSpanStorePagination(t *testing.T) {
	_, st := openStore(t)
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	if err := st.Append("run-000003", testSpans(7, base)); err != nil {
		t.Fatal(err)
	}
	// A second run's rows must not leak into the first run's pages.
	if err := st.Append("run-000004", testSpans(3, base)); err != nil {
		t.Fatal(err)
	}
	// Nor may a run whose ID puts its rows inside the first run's key range.
	if err := st.Append("run-000003/x", testSpans(2, base)); err == nil {
		t.Fatal("spans stored under a run ID containing /")
	}
	if n, err := st.Count("run-000003"); err != nil || n != 7 {
		t.Fatalf("Count = %d, %v; want 7", n, err)
	}
	var got []Span
	after := -1
	pages := 0
	for {
		page, next, err := st.SpansPage("run-000003", after, 3)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
		pages++
		if next < 0 {
			break
		}
		after = next
	}
	if len(got) != 7 {
		t.Fatalf("paged %d spans, want 7", len(got))
	}
	if pages != 3 {
		t.Fatalf("took %d pages, want 3", pages)
	}
	for i, sp := range got {
		if sp.Name != fmt.Sprintf("op-%d", i) {
			t.Fatalf("page order broken at %d: %q", i, sp.Name)
		}
	}
}

func TestSpanStorePersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewSpanStore(db)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	if err := st.Append("run-000005", testSpans(4, base)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := storage.Open(dir, storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st2, err := NewSpanStore(db2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st2.Spans("run-000005")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("after reopen got %d spans, want 4", len(out))
	}
}
