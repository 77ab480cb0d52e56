package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadersAndWriter drives one writer against many concurrent
// readers; run with -race in CI. Readers must always see consistent rows
// (schema arity intact), and the writer must never lose an acknowledged
// write.
func TestConcurrentReadersAndWriter(t *testing.T) {
	db := openTestDB(t, Options{Sync: SyncNever})
	schema := MustSchema("t",
		Column{Name: "k", Kind: KindString},
		Column{Name: "v", Kind: KindInt},
		Column{Name: "s", Kind: KindString, Nullable: true})
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("t", "s"); err != nil {
		t.Fatal(err)
	}

	const writes = 2000
	var done atomic.Bool
	var readerErr atomic.Value
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for !done.Load() {
				db.Table("t").Scan(func(row Row) bool {
					if len(row) != 3 {
						readerErr.Store(fmt.Errorf("short row: %v", row))
						return false
					}
					return true
				})
				if rows, err := db.Table("t").Lookup("s", S("bucket-1")); err == nil {
					for _, row := range rows {
						if row.Get(schema, "s").Str() != "bucket-1" {
							readerErr.Store(fmt.Errorf("index returned wrong row: %v", row))
						}
					}
				}
			}
		}(r)
	}
	for i := 0; i < writes; i++ {
		if err := db.Insert("t", Row{
			S(fmt.Sprintf("k%06d", i)), I(int64(i)), S(fmt.Sprintf("bucket-%d", i%7)),
		}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			row := Row{S(fmt.Sprintf("k%06d", i)), I(int64(-i)), S("bucket-1")}
			if err := db.Update("t", row); err != nil {
				t.Fatal(err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
	if err := readerErr.Load(); err != nil {
		t.Fatal(err)
	}
	if db.Table("t").Len() != writes {
		t.Fatalf("rows = %d, want %d", db.Table("t").Len(), writes)
	}
}

// TestDBViewConcurrentWithWriter scans the live table from many goroutines
// while a writer keeps committing batches that rewrite every row. One Scan
// holds the shared lock for its whole walk, so under -race each scan must see
// every row at exactly one writer generation — the guarantee the API's reads
// rest on.
func TestDBViewConcurrentWithWriter(t *testing.T) {
	db := openTestDB(t, Options{Sync: SyncNever})
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	const rows = 200
	for i := 0; i < rows; i++ {
		if err := db.Insert("recordings", Row{S(fmt.Sprintf("r%03d", i)), Null(), I(0), Null()}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writerErr error
	var writerWG, wg sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for gen := int64(1); ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			// One atomic batch rewrites every row to the same generation.
			ops := make([]Op, 0, rows)
			for i := 0; i < rows; i++ {
				ops = append(ops, UpdateOp("recordings", Row{S(fmt.Sprintf("r%03d", i)), Null(), I(gen), Null()}))
			}
			if err := db.Apply(ops...); err != nil {
				writerErr = err
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				seen := map[int64]int{}
				n := 0
				db.Table("recordings").Scan(func(r Row) bool {
					seen[r[2].Int()]++
					n++
					return true
				})
				if n != rows {
					t.Errorf("scan saw %d rows, want %d", n, rows)
					return
				}
				if len(seen) != 1 {
					t.Errorf("scan saw torn generations: %v", seen)
					return
				}
			}
		}()
	}
	// Let readers finish, then stop the writer.
	wg.Wait()
	close(stop)
	writerWG.Wait()
	if writerErr != nil {
		t.Fatalf("writer failed: %v", writerErr)
	}
}

// TestConcurrentWriters serializes through the internal lock; all writes
// must land exactly once.
func TestConcurrentWriters(t *testing.T) {
	db := openTestDB(t, Options{Sync: SyncNever})
	schema := MustSchema("t", Column{Name: "k", Kind: KindString})
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	const perWriter = 300
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.Insert("t", Row{S(fmt.Sprintf("w%d-%04d", w, i))}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := db.Table("t").Len(); got != 8*perWriter {
		t.Fatalf("rows = %d, want %d", got, 8*perWriter)
	}
}
