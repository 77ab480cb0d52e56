package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// The differential suite: a live commit applies the ops it validated, Open
// replays their WAL record through the payload decoder, and the two must
// build the same tables. A plain map model stands beside both so that "the
// same" also means "right".

// diffSchemas are the two tables every script runs over: a string-keyed one
// with a nullable column of every kind, and an int-keyed one. The indexed
// columns are a string, an int and a time.
func diffSchemas(t testing.TB) []*Schema {
	t.Helper()
	a, err := NewSchema("a",
		Column{Name: "id", Kind: KindString},
		Column{Name: "s", Kind: KindString, Nullable: true},
		Column{Name: "i", Kind: KindInt, Nullable: true},
		Column{Name: "f", Kind: KindFloat, Nullable: true},
		Column{Name: "b", Kind: KindBool, Nullable: true},
		Column{Name: "t", Kind: KindTime, Nullable: true},
		Column{Name: "raw", Kind: KindBytes, Nullable: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSchema("b",
		Column{Name: "n", Kind: KindInt},
		Column{Name: "t", Kind: KindTime},
		Column{Name: "raw", Kind: KindBytes},
		Column{Name: "s", Kind: KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return []*Schema{a, b}
}

var diffIndexes = map[string][]string{"a": {"s", "i"}, "b": {"t"}}

func openDiffDB(t testing.TB, dir string) *DB {
	t.Helper()
	db, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func newDiffDB(t testing.TB) *DB {
	t.Helper()
	db := openDiffDB(t, t.TempDir())
	var ddl []Op
	for _, s := range diffSchemas(t) {
		ddl = append(ddl, CreateTableOp(s))
		for _, col := range diffIndexes[s.Table] {
			ddl = append(ddl, CreateIndexOp(s.Table, col))
		}
	}
	if err := db.Apply(ddl...); err != nil {
		t.Fatal(err)
	}
	return db
}

// reopenCopy copies db's WAL and opens the copy: the state a restart would
// recover, without stopping the live database.
func reopenCopy(t testing.TB, db *DB) *DB {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(db.dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return openDiffDB(t, dir)
}

// script feeds an op generator from a byte string; past the end it reads
// zeros, so every script is valid and a fuzzer's bytes map onto ops directly.
type script struct {
	data []byte
	pos  int
}

func (s *script) next() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *script) done() bool { return s.pos >= len(s.data) }

var (
	diffStrings = []string{"", "sp-1", "sp-2", "Elachistocleis ovalis", "ü"}
	diffFloats  = []float64{0, -1.5, 3.14159, math.Inf(1), -math.MaxFloat64}
	diffTimes   = []time.Time{
		{}, // the zero time, year 1
		time.Date(1969, 7, 20, 20, 17, 40, 123456000, time.UTC),                       // pre-epoch
		time.Date(2013, 11, 12, 19, 58, 9, 767000000, time.FixedZone("BRT", -3*3600)), // not UTC
		time.UnixMicro(1),
	}
	diffBytes = [][]byte{nil, {}, {0}, []byte("k1\x00v1\x00k2\x00v2"), {0xFF, 0x00, 0x01}}
)

// or returns v, or NULL one time in five.
func (s *script) or(v Value) Value {
	if s.next()%5 == 0 {
		return Null()
	}
	return v
}

// pk draws a primary key: for an insert any of 256 (so a full table collides
// with itself), otherwise three times in four one that is in the model (so
// updates and deletes mostly hit, and the trees shrink as well as grow).
func (s *script) pk(table string, existing []Row) Value {
	if n := len(existing); n > 0 && s.next()%4 != 0 {
		return existing[(int(s.next())<<8|int(s.next()))%n][0]
	}
	id := s.next()
	if table == "a" {
		return S(fmt.Sprintf("k%03d", id))
	}
	return I(int64(id) - 128)
}

func (s *script) row(table string, pk Value) Row {
	if table == "a" {
		return Row{pk,
			s.or(S(diffStrings[int(s.next())%len(diffStrings)])),
			s.or(I(int64(s.next()) - 128)),
			s.or(F(diffFloats[int(s.next())%len(diffFloats)])),
			s.or(B(s.next()%2 == 1)),
			s.or(T(diffTimes[int(s.next())%len(diffTimes)])),
			s.or(Bytes(diffBytes[int(s.next())%len(diffBytes)])),
		}
	}
	return Row{pk,
		T(diffTimes[int(s.next())%len(diffTimes)]),
		Bytes(diffBytes[int(s.next())%len(diffBytes)]),
		S(diffStrings[int(s.next())%len(diffStrings)]),
	}
}

// batch draws one batch of 1–6 ops over the rows m holds. Nothing steers it
// clear of invalid batches — a duplicate insert, an update of a missing row,
// a key used twice — those are rejections the model must predict.
func (s *script) batch(m model) []Op {
	var ops []Op
	for n := 1 + int(s.next()%6); n > 0; n-- {
		table := "a"
		if s.next()%3 == 0 {
			table = "b"
		}
		existing := m.sorted(table)
		switch s.next() % 8 {
		case 0, 1, 2:
			pk := s.pk(table, nil)
			ops = append(ops, InsertOp(table, s.row(table, pk)))
		case 3, 4:
			ops = append(ops, UpdateOp(table, s.row(table, s.pk(table, existing))))
		case 5:
			ops = append(ops, DeleteOp(table, s.pk(table, existing)))
		case 6: // delete, then re-insert the same key in the same batch
			pk := s.pk(table, existing)
			ops = append(ops, DeleteOp(table, pk), InsertOp(table, s.row(table, pk)))
		case 7: // insert, then update it in the same batch
			pk := s.pk(table, nil)
			ops = append(ops, InsertOp(table, s.row(table, pk)), UpdateOp(table, s.row(table, pk)))
		}
	}
	return ops
}

// model is the reference: table -> encoded pk -> row.
type model map[string]map[string]Row

func (m model) clone() model {
	out := model{}
	for name, rows := range m {
		out[name] = make(map[string]Row, len(rows))
		for k, r := range rows {
			out[name][k] = r
		}
	}
	return out
}

// apply runs ops over a copy of m; it returns the new model, or the error
// identity the database must reject the batch with.
func (m model) apply(ops []Op) (model, error) {
	out := m.clone()
	for _, op := range ops {
		rows := out[op.table]
		pk := op.pk
		if op.code != opDelete {
			pk = op.row[0]
		}
		key := string(EncodeKey(nil, pk))
		_, exists := rows[key]
		switch {
		case op.code == opInsert && exists:
			return nil, ErrDuplicate
		case op.code != opInsert && !exists:
			return nil, ErrNotFound
		case op.code == opDelete:
			delete(rows, key)
		default:
			rows[key] = op.row.Clone()
		}
	}
	return out, nil
}

func (m model) sorted(table string) []Row {
	keys := make([]string, 0, len(m[table]))
	for k := range m[table] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]Row, len(keys))
	for i, k := range keys {
		rows[i] = m[table][k]
	}
	return rows
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func sameRows(t testing.TB, what string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !rowsEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func scanAll(tbl *Table) []Row {
	var rows []Row
	tbl.Scan(func(r Row) bool { rows = append(rows, r); return true })
	return rows
}

// sameTables compares every table of got against want through every read
// path: Len, Scan, Get, ScanFrom at each key, and per index Lookup of each
// value present, NULL included.
func sameTables(t testing.TB, what string, got, want *DB) {
	t.Helper()
	for _, s := range diffSchemas(t) {
		name := s.Table
		g, w := got.Table(name), want.Table(name)
		if g == nil || w == nil {
			t.Fatalf("%s: table %q missing (got %v, want %v)", what, name, g != nil, w != nil)
		}
		if g.Len() != w.Len() {
			t.Fatalf("%s: %s Len %d, want %d", what, name, g.Len(), w.Len())
		}
		rows := scanAll(w)
		sameRows(t, what+": "+name+" scan", scanAll(g), rows)
		for i, r := range rows {
			gr, err := g.Get(r[0])
			if err != nil || !rowsEqual(gr, r) {
				t.Fatalf("%s: %s Get(%v) = %v, %v; want %v", what, name, r[0], gr, err, r)
			}
			var tail []Row
			g.ScanFrom(r[0], func(r Row) bool { tail = append(tail, r); return true })
			sameRows(t, fmt.Sprintf("%s: %s ScanFrom(%v)", what, name, r[0]), tail, rows[i:])
		}
		for _, col := range diffIndexes[name] {
			if !g.HasIndex(col) {
				t.Fatalf("%s: %s lost its index on %s", what, name, col)
			}
			ci := s.Index(col)
			var vals []Value
			for _, r := range rows {
				vals = append(vals, r[ci])
			}
			for _, v := range vals {
				gl, gerr := g.Lookup(col, v)
				wl, werr := w.Lookup(col, v)
				if gerr != nil || werr != nil {
					t.Fatalf("%s: %s Lookup(%s,%v): %v / %v", what, name, col, v, gerr, werr)
				}
				sameRows(t, fmt.Sprintf("%s: %s Lookup(%s,%v)", what, name, col, v), gl, wl)
			}
		}
	}
}

// sameAsModel checks the live tables against the reference model, index
// lookups included (an index entry left behind by an update would show as an
// extra row, a lost one as a missing row).
func sameAsModel(t testing.TB, what string, db *DB, m model) {
	t.Helper()
	for _, s := range diffSchemas(t) {
		want := m.sorted(s.Table)
		tbl := db.Table(s.Table)
		sameRows(t, what+": "+s.Table+" vs model", scanAll(tbl), want)
		for _, col := range diffIndexes[s.Table] {
			ci := s.Index(col)
			for _, r := range want {
				var match []Row
				for _, o := range want {
					if o[ci].Equal(r[ci]) {
						match = append(match, o)
					}
				}
				got, err := tbl.Lookup(col, r[ci])
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("%s: %s Lookup(%s,%v) vs model", what, s.Table, col, r[ci]), got, match)
			}
		}
	}
}

// runApplyScript is the body shared by TestLiveApplyMatchesReplay and
// FuzzApplyReplay: apply the script's batches live; after each, the live
// state must equal the model (a rejected batch leaving both, and the WAL,
// untouched, with the model's error identity); at checkpoints along the way
// the copied-and-reopened directory must equal the live one; at the end once
// more.
func runApplyScript(t testing.TB, data []byte, checkpoints int) {
	t.Helper()
	s := &script{data: data}
	db := newDiffDB(t)
	m := model{"a": {}, "b": {}}
	every := 1
	if checkpoints > 0 {
		every = max(1, len(data)/checkpoints)
	}
	nextCheck := every
	for n := 0; !s.done(); n++ {
		ops := s.batch(m)
		walBefore := db.WALSize()
		after, want := m.apply(ops)
		err := db.Apply(ops...)
		switch {
		case want == nil && err != nil:
			t.Fatalf("batch %d: valid batch rejected: %v", n, err)
		case want != nil && !errors.Is(err, want):
			t.Fatalf("batch %d: Apply = %v, want %v", n, err, want)
		case want != nil && db.WALSize() != walBefore:
			t.Fatalf("batch %d: rejected batch grew the WAL %d -> %d", n, walBefore, db.WALSize())
		case want == nil:
			m = after
		}
		sameAsModel(t, fmt.Sprintf("batch %d", n), db, m)
		if checkpoints > 0 && s.pos >= nextCheck {
			nextCheck += every
			sameTables(t, fmt.Sprintf("reopen after batch %d", n), reopenCopy(t, db), db)
		}
	}
	sameTables(t, "final reopen", reopenCopy(t, db), db)
}

func TestLiveApplyMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		data := make([]byte, 12000)
		rand.New(rand.NewSource(seed)).Read(data)
		runApplyScript(t, data, 4)
	}
}

// FuzzApplyReplay drives the same differential from fuzzer-chosen op scripts.
func FuzzApplyReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 3, 0, 1, 2, 3, 4, 5, 6, 7, 0, 3, 6, 9, 9, 9, 9, 9, 9, 9, 1, 3, 5})
	seed := make([]byte, 400)
	rand.New(rand.NewSource(23)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		runApplyScript(t, data, 1)
	})
}

// TestRejectedBatchLeavesNoTrace: a batch that fails validation changes
// nothing — not the tables, not the WAL, not what a restart recovers — and
// fails with the same error identities as ever, also when only a later op of
// the batch is the bad one.
func TestRejectedBatchLeavesNoTrace(t *testing.T) {
	good := func(id string) Row { return Row{S(id), S("sp-1"), I(1), Null(), Null(), Null(), Null()} }
	for _, tc := range []struct {
		name string
		ops  []Op
		is   error // nil: any error
	}{
		{"duplicate pk", []Op{InsertOp("a", good("k00"))}, ErrDuplicate},
		{"duplicate pk within the batch", []Op{InsertOp("a", good("k50")), InsertOp("a", good("k50"))}, ErrDuplicate},
		{"unknown table", []Op{InsertOp("nope", good("k50"))}, nil},
		{"update of a missing row", []Op{UpdateOp("a", good("k51"))}, ErrNotFound},
		{"delete of a missing row", []Op{DeleteOp("a", S("k51"))}, ErrNotFound},
		{"update after delete in the batch", []Op{DeleteOp("a", S("k00")), UpdateOp("a", good("k00"))}, ErrNotFound},
		{"schema mismatch: arity", []Op{InsertOp("a", Row{S("k52")})}, nil},
		{"schema mismatch: kind", []Op{InsertOp("a", Row{S("k52"), I(7), Null(), Null(), Null(), Null(), Null()})}, nil},
		{"schema mismatch: null pk", []Op{InsertOp("b", Row{Null(), T(time.Time{}), Bytes(nil), S("")})}, nil},
		{"only the second op is bad", []Op{InsertOp("a", good("k53")), InsertOp("a", good("k00"))}, ErrDuplicate},
		{"only the last op is bad, other table", []Op{InsertOp("a", good("k54")), DeleteOp("a", S("k01")), UpdateOp("b", Row{I(99), T(time.Time{}), Bytes(nil), S("")})}, ErrNotFound},
		{"table created twice", []Op{CreateTableOp(diffSchemas(t)[0])}, nil},
		{"index on a missing column", []Op{InsertOp("a", good("k55")), CreateIndexOp("a", "nope")}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := newDiffDB(t)
			m := model{"a": {}, "b": {}}
			m, _ = m.apply([]Op{InsertOp("a", good("k00")), InsertOp("a", good("k01"))})
			if err := db.Apply(InsertOp("a", good("k00")), InsertOp("a", good("k01"))); err != nil {
				t.Fatal(err)
			}
			wal := db.WALSize()
			err := db.Apply(tc.ops...)
			if err == nil {
				t.Fatal("batch accepted")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("Apply = %v, want %v", err, tc.is)
			}
			if got := db.WALSize(); got != wal {
				t.Fatalf("WAL grew %d -> %d", wal, got)
			}
			sameAsModel(t, "live", db, m)
			re := reopenCopy(t, db)
			sameTables(t, "reopened", re, db)
			if len(re.Tables()) != len(db.Tables()) || re.Table("a").HasIndex("nope") {
				t.Fatalf("reopened tables %v, live %v", re.Tables(), db.Tables())
			}
			// The database still commits after a rejection.
			if err := db.Apply(InsertOp("a", good("k60"))); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestApplyDoesNotRetainCallerMemory is the BatchWriter's arena contract:
// once Apply returns the caller may overwrite every slice it passed — the
// row's cell array and every bytes payload — and the stored rows, the WAL
// record and the index entries must not notice.
func TestApplyDoesNotRetainCallerMemory(t *testing.T) {
	db := newDiffDB(t)
	vals := make([]Value, 0, 64) // one arena for every row, as BatchWriter.vals
	blob := []byte("k1\x00v1")   // one buffer for every payload, as annEnc.buf
	pkBytes := []byte{1, 2, 3}   // a bytes cell the test scribbles on too
	build := func(id string, gen int64) Row {
		start := len(vals)
		vals = append(vals, S(id), S("sp-1"), I(gen), F(0.5), B(true), T(time.UnixMicro(gen)), Bytes(blob))
		return Row(vals[start:len(vals):len(vals)])
	}
	scribble := func() {
		for i := range vals {
			vals[i] = S("overwritten")
		}
		for i := range blob {
			blob[i] = 'X'
		}
		for i := range pkBytes {
			pkBytes[i] = 0xEE
		}
		vals = vals[:0]
	}
	want := func(id string, gen int64) Row {
		return Row{S(id), S("sp-1"), I(gen), F(0.5), B(true), T(time.UnixMicro(gen)), Bytes([]byte("k1\x00v1"))}
	}
	check := func(what string, src *DB, rows ...Row) {
		t.Helper()
		sameRows(t, what, scanAll(src.Table("a")), rows)
		for _, r := range rows {
			got, err := src.Table("a").Lookup("i", r[2])
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("%s: Lookup(i,%v)", what, r[2]), got, []Row{r})
		}
	}

	if err := db.Apply(InsertOp("a", build("k1", 1)), InsertOp("a", build("k2", 2))); err != nil {
		t.Fatal(err)
	}
	scribble()
	check("after insert", db, want("k1", 1), want("k2", 2))

	copy(blob, "k1\x00v1")
	if err := db.Apply(UpdateOp("a", build("k1", 3)), DeleteOp("a", S("k2")), InsertOp("a", build("k2", 4))); err != nil {
		t.Fatal(err)
	}
	scribble()
	check("after update", db, want("k1", 3), want("k2", 4))
	check("reopened", reopenCopy(t, db), want("k1", 3), want("k2", 4))

	// A bytes cell the caller owns — here in a row that a later update
	// replaces — is copied too, and Raw() of a stored row is not the caller's.
	copy(blob, "k1\x00v1")
	copy(pkBytes, []byte{1, 2, 3})
	if err := db.Apply(InsertOp("b", Row{I(1), T(time.Time{}), Bytes(pkBytes), S("s")})); err != nil {
		t.Fatal(err)
	}
	scribble()
	got, err := db.Table("b").Get(I(1))
	if err != nil || !bytes.Equal(got[2].Raw(), []byte{1, 2, 3}) {
		t.Fatalf("stored bytes = %x, %v; want 010203", got[2].Raw(), err)
	}
}
