package storage

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("recordings",
		Column{Name: "id", Kind: KindString},
		Column{Name: "species", Kind: KindString, Nullable: true},
		Column{Name: "year", Kind: KindInt, Nullable: true},
		Column{Name: "quality", Kind: KindFloat, Nullable: true},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestDBBasicCRUD(t *testing.T) {
	db := openTestDB(t, Options{Sync: SyncOnClose})
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	row := Row{S("r1"), S("Elachistocleis ovalis"), I(1978), F(0.9)}
	if err := db.Insert("recordings", row); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := db.Table("recordings").Get(S("r1"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Get(testSchema(t), "species").Str() != "Elachistocleis ovalis" {
		t.Fatalf("Get returned %v", got)
	}

	row[1] = S("Nomen inquirenda")
	if err := db.Update("recordings", row); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, _ = db.Table("recordings").Get(S("r1"))
	if got[1].Str() != "Nomen inquirenda" {
		t.Fatalf("after update species = %q", got[1].Str())
	}

	if err := db.Apply(DeleteOp("recordings", S("r1"))); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := db.Table("recordings").Get(S("r1")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v, want ErrNotFound", err)
	}
}

func TestDBSchemaValidation(t *testing.T) {
	db := openTestDB(t, Options{Sync: SyncNever})
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	// Wrong arity.
	if err := db.Insert("recordings", Row{S("x")}); err == nil {
		t.Fatal("short row accepted")
	}
	// Wrong kind.
	if err := db.Insert("recordings", Row{S("x"), I(1), I(1), F(0)}); err == nil {
		t.Fatal("wrong-kind row accepted")
	}
	// Null PK.
	if err := db.Insert("recordings", Row{Null(), S("a"), I(1), F(0)}); err == nil {
		t.Fatal("null primary key accepted")
	}
	// Nullable columns accept NULL.
	if err := db.Insert("recordings", Row{S("x"), Null(), Null(), Null()}); err != nil {
		t.Fatalf("nullable columns rejected NULL: %v", err)
	}
	// Duplicate PK.
	if err := db.Insert("recordings", Row{S("x"), Null(), Null(), Null()}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert: %v, want ErrDuplicate", err)
	}
	// Unknown table.
	if err := db.Insert("nope", Row{S("x")}); err == nil {
		t.Fatal("insert into unknown table accepted")
	}
	// Update/delete of missing rows.
	if err := db.Update("recordings", Row{S("zz"), Null(), Null(), Null()}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := db.Apply(DeleteOp("recordings", S("zz"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	// Duplicate table.
	if err := db.CreateTable(testSchema(t)); err == nil {
		t.Fatal("duplicate CreateTable accepted")
	}
}

func TestDBSecondaryIndex(t *testing.T) {
	db := openTestDB(t, Options{Sync: SyncNever})
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sp := fmt.Sprintf("species-%d", i%10)
		if err := db.Insert("recordings", Row{S(fmt.Sprintf("r%03d", i)), S(sp), I(int64(1960 + i)), Null()}); err != nil {
			t.Fatal(err)
		}
	}
	// Index created after data exists must backfill.
	if err := db.CreateIndex("recordings", "species"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	rows, err := db.Table("recordings").Lookup("species", S("species-3"))
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if len(rows) != 10 {
		t.Fatalf("Lookup returned %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r[1].Str() != "species-3" {
			t.Fatalf("Lookup returned row with species %q", r[1].Str())
		}
	}
	// Index maintained on update.
	r := rows[0].Clone()
	r[1] = S("renamed")
	if err := db.Update("recordings", r); err != nil {
		t.Fatal(err)
	}
	rows, _ = db.Table("recordings").Lookup("species", S("species-3"))
	if len(rows) != 9 {
		t.Fatalf("after update Lookup returned %d rows, want 9", len(rows))
	}
	rows, _ = db.Table("recordings").Lookup("species", S("renamed"))
	if len(rows) != 1 {
		t.Fatalf("Lookup(renamed) returned %d rows, want 1", len(rows))
	}
	// Index maintained on delete.
	if err := db.Apply(DeleteOp("recordings", rows[0][0])); err != nil {
		t.Fatal(err)
	}
	rows, _ = db.Table("recordings").Lookup("species", S("renamed"))
	if len(rows) != 0 {
		t.Fatalf("Lookup after delete returned %d rows", len(rows))
	}
	// Lookup without an index errors.
	if _, err := db.Table("recordings").Lookup("year", I(1970)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup without index: %v", err)
	}
	// Index on unknown column rejected.
	if err := db.CreateIndex("recordings", "nope"); err == nil {
		t.Fatal("index on unknown column accepted")
	}
}

// TestIndexedFloatSignedZero: +0 and -0 are different index keys, so an
// update from one to the other must move the row's index entry, and a reopen
// must rebuild the same index the live table holds. A NaN equals itself.
func TestIndexedFloatSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if F(0).Equal(F(negZero)) || !F(math.NaN()).Equal(F(math.NaN())) {
		t.Fatal("Equal compares floats by value, not by their stored bits")
	}
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("recordings", "quality"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("recordings", Row{S("r1"), Null(), Null(), F(0)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("recordings", Row{S("r1"), Null(), Null(), F(negZero)}); err != nil {
		t.Fatal(err)
	}
	check := func(db *DB, when string) {
		t.Helper()
		neg, err := db.Table("recordings").Lookup("quality", F(negZero))
		if err != nil {
			t.Fatal(err)
		}
		pos, err := db.Table("recordings").Lookup("quality", F(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(neg) != 1 || len(pos) != 0 {
			t.Fatalf("%s: Lookup(-0) = %d rows, Lookup(+0) = %d rows; want 1 and 0", when, len(neg), len(pos))
		}
	}
	check(db, "live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{Sync: SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db, "reopened")
}

func TestDBRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("recordings", "species"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Insert("recordings", Row{S(fmt.Sprintf("r%02d", i)), S("sp"), I(int64(i)), Null()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Apply(DeleteOp("recordings", S("r00"))); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	tab := db2.Table("recordings")
	if tab == nil {
		t.Fatal("table lost after recovery")
	}
	if tab.Len() != 49 {
		t.Fatalf("recovered %d rows, want 49", tab.Len())
	}
	if tab.Has(S("r00")) {
		t.Fatal("deleted row resurrected by recovery")
	}
	rows, err := tab.Lookup("species", S("sp"))
	if err != nil {
		t.Fatalf("secondary index lost after recovery: %v", err)
	}
	if len(rows) != 49 {
		t.Fatalf("index recovered %d rows, want 49", len(rows))
	}
}

func TestDBRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Insert("recordings", Row{S(fmt.Sprintf("r%d", i)), Null(), Null(), Null()}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// Simulate a crash mid-write: append garbage to the WAL.
	walPath := filepath.Join(dir, walFile)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if db2.Table("recordings").Len() != 10 {
		t.Fatalf("recovered %d rows, want 10", db2.Table("recordings").Len())
	}
	// Writes after truncation still work and survive another cycle.
	if err := db2.Insert("recordings", Row{S("r10"), Null(), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	db2.Close()
	db3, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.Table("recordings").Len() != 11 {
		t.Fatalf("third open recovered %d rows, want 11", db3.Table("recordings").Len())
	}
}

// TestReplayStopsAtOversizedRecord: a torn or corrupt tail whose length
// header claims more bytes than the file holds (up to 4 GiB) is a torn tail
// like any other — Open must not allocate what it claims, must keep every
// record before it, and must truncate the log back to the last intact
// boundary.
func TestReplayStopsAtOversizedRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"max length header", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}},
		{"length larger than the file", []byte{0x00, 0x00, 0x10, 0x00, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}},
		{"one byte short", []byte{0x04, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, Options{Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.CreateTable(testSchema(t)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := db.Insert("recordings", Row{S(fmt.Sprintf("r%d", i)), S("sp"), I(int64(i)), Null()}); err != nil {
					t.Fatal(err)
				}
			}
			db.Close()
			walPath := filepath.Join(dir, walFile)
			intact, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, append(append([]byte(nil), intact...), tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			size := len(intact) + len(tc.tail)

			// The replay loop alone: every record up to the tail, the intact
			// offset, and a payload buffer that never outgrew the file.
			records, maxCap := 0, 0
			off, err := replayWAL(walPath, func(payload []byte) error {
				records++
				maxCap = max(maxCap, cap(payload))
				return nil
			})
			if err != nil || off != int64(len(intact)) || records != 11 {
				t.Fatalf("replayWAL = offset %d, %v after %d records; want %d, nil, 11", off, err, records, len(intact))
			}
			if maxCap > size {
				t.Fatalf("payload buffer grew to %d bytes for a %d-byte file", maxCap, size)
			}

			db2, err := Open(dir, Options{Sync: SyncAlways})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			for i := 0; i < 10; i++ {
				row, err := db2.Table("recordings").Get(S(fmt.Sprintf("r%d", i)))
				if err != nil || row[2].Int() != int64(i) {
					t.Fatalf("row r%d after reopen: %v, %v", i, row, err)
				}
			}
			if st, err := os.Stat(walPath); err != nil || st.Size() != int64(len(intact)) {
				t.Fatalf("wal is %d bytes after reopen (%v), want it truncated to %d", st.Size(), err, len(intact))
			}
		})
	}
}

// TestSyncOnCloseWritesThrough: under SyncOnClose every acknowledged commit
// is in the WAL file when Apply returns — no Sync or Close in between — so a
// process killed there loses nothing it acknowledged. Replaying the file
// while the database is still open rebuilds its rows and index, and so does a
// reopen after Close.
func TestSyncOnCloseWritesThrough(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walFile)
	db, err := Open(dir, Options{Sync: SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("recordings", "species"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 201; i++ {
		if err := db.Insert("recordings", Row{S(fmt.Sprintf("r%03d", i)), S(fmt.Sprintf("sp%d", i%7)), I(int64(i)), Null()}); err != nil {
			t.Fatal(err)
		}
		records := 0
		intact, err := replayWAL(walPath, func([]byte) error { records++; return nil })
		if err != nil {
			t.Fatal(err)
		}
		if want := 3 + i; records != want || intact != db.WALSize() {
			t.Fatalf("after insert %d the file holds %d records in %d bytes, want %d in %d", i, records, intact, want, db.WALSize())
		}
	}
	check := func(db *DB, what string) {
		t.Helper()
		if got := db.Table("recordings").Len(); got != 201 {
			t.Fatalf("%s: %d rows, want 201", what, got)
		}
		rows, err := db.Table("recordings").Lookup("species", S("sp0"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 29 {
			t.Fatalf("%s: index holds %d rows of sp0, want 29", what, len(rows))
		}
	}
	replayed := &DB{tables: make(map[string]*Table)}
	if _, err := replayWAL(walPath, replayed.applyPayload); err != nil {
		t.Fatal(err)
	}
	check(replayed, "the file of the open database")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{Sync: SyncOnClose})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	check(db2, "reopened")
}

// TestFailedAppendIsSticky: once a WAL write has failed, what the file holds
// past the last acknowledged record is unknown, so every later commit fails
// too, even when the file would take it, and none of them is applied. A
// reopen recovers exactly what was acknowledged.
func TestFailedAppendIsSticky(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	row := func(id string) Row { return Row{S(id), S("sp"), I(1), Null()} }
	if err := db.Insert("recordings", row("acked")); err != nil {
		t.Fatal(err)
	}
	readOnly, err := os.Open(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	writable := db.log.f
	db.log.f = readOnly
	if err := db.Insert("recordings", row("failed")); err == nil {
		t.Fatal("a write to a read-only WAL succeeded")
	}
	db.log.f = writable
	if err := db.Insert("recordings", row("after")); err == nil {
		t.Fatal("a commit after a failed WAL write succeeded")
	}
	if tab := db.Table("recordings"); tab.Len() != 1 || !tab.Has(S("acked")) {
		t.Fatalf("live table holds %d rows, want only the acknowledged one", tab.Len())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{Sync: SyncOnClose})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if tab := db.Table("recordings"); tab.Len() != 1 || !tab.Has(S("acked")) {
		t.Fatalf("reopened table holds %d rows, want only the acknowledged one", tab.Len())
	}
}

func TestDBAtomicBatch(t *testing.T) {
	db := openTestDB(t, Options{Sync: SyncNever})
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("recordings", Row{S("a"), Null(), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	// Batch where the *last* op conflicts: nothing must apply.
	err := db.Apply(
		InsertOp("recordings", Row{S("b"), Null(), Null(), Null()}),
		InsertOp("recordings", Row{S("a"), Null(), Null(), Null()}), // duplicate
	)
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("batch with duplicate: %v", err)
	}
	if db.Table("recordings").Has(S("b")) {
		t.Fatal("partial batch applied: b exists")
	}
	// Batch that is internally consistent: create table + insert + index.
	s2, _ := NewSchema("updates", Column{Name: "id", Kind: KindString}, Column{Name: "ref", Kind: KindString, Nullable: true})
	err = db.Apply(
		CreateTableOp(s2),
		InsertOp("updates", Row{S("u1"), S("a")}),
		CreateIndexOp("updates", "ref"),
	)
	if err != nil {
		t.Fatalf("composite batch: %v", err)
	}
	rows, err := db.Table("updates").Lookup("ref", S("a"))
	if err != nil || len(rows) != 1 {
		t.Fatalf("Lookup after composite batch: %v %d", err, len(rows))
	}
	// Insert-then-delete of the same key within one batch is legal.
	if err := db.Apply(
		InsertOp("updates", Row{S("tmp"), Null()}),
		DeleteOp("updates", S("tmp")),
	); err != nil {
		t.Fatalf("insert+delete batch: %v", err)
	}
	if db.Table("updates").Has(S("tmp")) {
		t.Fatal("tmp row survived insert+delete batch")
	}
}

func TestDBViewAndScan(t *testing.T) {
	db := openTestDB(t, Options{Sync: SyncNever})
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Insert("recordings", Row{S(fmt.Sprintf("r%02d", i)), Null(), I(int64(i)), Null()}); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	db.Table("recordings").Scan(func(r Row) bool {
		sum += r[2].Int()
		return true
	})
	if sum != 190 {
		t.Fatalf("sum = %d, want 190", sum)
	}
	if n := db.Table("recordings").Count(func(r Row) bool { return r[2].Int()%2 == 0 }); n != 10 {
		t.Fatalf("Count = %d, want 10", n)
	}
}

func TestDBClosedRejectsWrites(t *testing.T) {
	db := openTestDB(t, Options{Sync: SyncNever})
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := db.Insert("recordings", Row{S("x"), Null(), Null(), Null()}); err == nil {
		t.Fatal("write accepted after Close")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestSchemaConstructorValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Fatal("empty table name accepted")
	}
	if _, err := NewSchema("t"); err == nil {
		t.Fatal("zero columns accepted")
	}
	if _, err := NewSchema("t", Column{Name: "pk", Kind: KindString, Nullable: true}); err == nil {
		t.Fatal("nullable primary key accepted")
	}
	if _, err := NewSchema("t", Column{Name: "pk", Kind: KindString}, Column{Name: "pk", Kind: KindInt}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewSchema("t", Column{Name: "", Kind: KindString}); err == nil {
		t.Fatal("unnamed column accepted")
	}
	if _, err := NewSchema("t", Column{Name: "pk", Kind: KindNull}); err == nil {
		t.Fatal("null-kind column accepted")
	}
	s := MustSchema("t", Column{Name: "pk", Kind: KindString}, Column{Name: "v", Kind: KindTime, Nullable: true})
	if s.Index("v") != 1 || s.Index("missing") != -1 {
		t.Fatal("Index lookup broken")
	}
	if err := s.Validate(Row{S("k"), T(time.Now())}); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
}
