package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// perfRow mirrors the provenance node-row shape: a realistic mixed-kind row
// for the delta-encode hot path.
func perfRow() Row {
	return Row{
		S("run-000042/p:ingest"),
		S("run-000042"),
		S("process"),
		S("ingest"),
		T(time.UnixMicro(1700000000000000).UTC()),
		I(17),
		Bytes([]byte("k1\x00v1\x00k2\x00v2")),
	}
}

var (
	encSink []byte
	rowSink Row
)

// TestEncodeRowAllocs guards the steady-state delta-encode path: encoding a
// row into a warm buffer must not allocate. This is what lets Repository and
// BatchWriter reuse append buffers across flushes.
func TestEncodeRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	row := perfRow()
	dst := EncodeRow(nil, row) // warm to full capacity
	if allocs := testing.AllocsPerRun(100, func() {
		encSink = EncodeRow(dst[:0], row)
	}); allocs != 0 {
		t.Fatalf("EncodeRow into warm buffer allocates %.1f/op, want 0", allocs)
	}
}

// TestEncodeKeyAllocs guards the point-read path: key encoding into a warm
// buffer must not allocate.
func TestEncodeKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	pk := S("run-000042/p:ingest")
	dst := EncodeKey(nil, pk)
	if allocs := testing.AllocsPerRun(100, func() {
		encSink = EncodeKey(dst[:0], pk)
	}); allocs != 0 {
		t.Fatalf("EncodeKey into warm buffer allocates %.1f/op, want 0", allocs)
	}
}

// TestTableGetAllocs guards the pooled-key read path end to end: a Table.Get
// should only allocate for the error-free return value plumbing, never for
// the probe key.
func TestTableGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	schema, err := NewSchema("t", Column{Name: "id", Kind: KindString}, Column{Name: "n", Kind: KindInt})
	if err != nil {
		t.Fatal(err)
	}
	tbl := newTable(schema, nil)
	for i := 0; i < 1000; i++ {
		row := Row{S(fmt.Sprintf("k%04d", i)), I(int64(i))}
		if !tbl.insert(EncodeKey(nil, row[0]), row, &keyArena{}) {
			t.Fatalf("insert %v: key already present", row[0])
		}
	}
	pk := S("k0500")
	if allocs := testing.AllocsPerRun(100, func() {
		row, err := tbl.Get(pk)
		if err != nil {
			t.Fatal(err)
		}
		rowSink = row
	}); allocs != 0 {
		t.Fatalf("Table.Get allocates %.1f/op, want 0", allocs)
	}
}

// TestValueSizeAllocs pins the cell: every stored row of every table is made
// of Values, so their size is live heap (96 bytes a cell before the word +
// payload layout).
func TestValueSizeAllocs(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz > 32 {
		t.Fatalf("Value is %d bytes, budget 32", sz)
	}
}

// TestApplyBatchAllocs pins what a commit allocates per row: the row's cell
// array, its bytes payload, and an amortised share of B-tree node growth and
// the batch's one key arena. A commit that re-parsed its own WAL record,
// boxed a value per tree entry and allocated each key reads 14.4 here.
func TestApplyBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	db := openTestDB(t, Options{Sync: SyncNever})
	schema, err := NewSchema("nodes",
		Column{Name: "id", Kind: KindString},
		Column{Name: "run_id", Kind: KindString},
		Column{Name: "n", Kind: KindInt},
		Column{Name: "ann", Kind: KindBytes},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Apply(CreateTableOp(schema), CreateIndexOp("nodes", "run_id")); err != nil {
		t.Fatal(err)
	}
	const batch = 128
	// Rows, pk strings and the ops slice are built outside the measured
	// function, as the BatchWriter builds them in its reused arena.
	const rounds = 21 // 1 warm-up + 20 measured
	ops := make([][]Op, rounds)
	ann := []byte("k1\x00v1\x00k2\x00v2")
	for r := range ops {
		vals := make([]Value, 0, 4*batch)
		for i := 0; i < batch; i++ {
			vals = append(vals, S(fmt.Sprintf("run-%06d/n%04d", r, i)), S(fmt.Sprintf("run-%06d", r)), I(int64(i)), Bytes(ann))
			ops[r] = append(ops[r], InsertOp("nodes", Row(vals[4*i:4*i+4])))
		}
	}
	round := 0
	perBatch := testing.AllocsPerRun(rounds-1, func() {
		if err := db.Apply(ops[round]...); err != nil {
			t.Fatal(err)
		}
		round++
	})
	t.Logf("allocs/row %.2f", perBatch/batch)
	if perRow := perBatch / batch; perRow > 3 {
		t.Fatalf("Apply allocates %.2f per inserted row, budget 3", perRow)
	}
}

func BenchmarkEncodeRow(b *testing.B) {
	row := perfRow()
	dst := EncodeRow(nil, row)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EncodeRow(dst[:0], row)
	}
	encSink = dst
}

func BenchmarkEncodeKey(b *testing.B) {
	pk := S("run-000042/p:ingest")
	dst := EncodeKey(nil, pk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EncodeKey(dst[:0], pk)
	}
	encSink = dst
}

func openBenchDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open(b.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkReadUnderWrite measures a full-table scan through the live handle
// while a writer commits concurrently: the scan shares the RWMutex with the
// writer, which is how every /api/v1 read runs. The writer is paced at
// exactly one 50-update batch per scan (handed off through an unbuffered
// channel, applied while the scan runs) — a free-running writer would make
// ns/op and allocs/op measure the host's goroutine-scheduling ratio instead
// of the storage layer. The sub-benchmark keeps its "locked" name so the
// BENCH_<pr>.json trajectory continues.
func BenchmarkReadUnderWrite(b *testing.B) {
	const rows = 2000
	b.Run("locked", func(b *testing.B) {
		db := openBenchDB(b)
		schema, err := NewSchema("recordings",
			Column{Name: "id", Kind: KindString},
			Column{Name: "species", Kind: KindString, Nullable: true},
			Column{Name: "year", Kind: KindInt, Nullable: true},
		)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.CreateTable(schema); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := db.Insert("recordings", Row{S(fmt.Sprintf("r%05d", i)), S("sp"), I(0)}); err != nil {
				b.Fatal(err)
			}
		}
		work := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := int64(1)
			for range work {
				ops := make([]Op, 0, 50)
				for i := 0; i < 50; i++ {
					ops = append(ops, UpdateOp("recordings",
						Row{S(fmt.Sprintf("r%05d", int(gen)*53%rows)), S("sp"), I(gen)}))
					gen++
				}
				if err := db.Apply(ops...); err != nil {
					return
				}
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			work <- struct{}{} // writer applies one batch while we scan
			n = 0
			db.Table("recordings").Scan(func(Row) bool { n++; return true })
			if n != rows {
				b.Fatalf("scan saw %d rows, want %d", n, rows)
			}
		}
		b.StopTimer()
		close(work)
		wg.Wait()
		b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}
