package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNotFound is returned when a key or record does not exist.
var ErrNotFound = errors.New("storage: not found")

// keyBufs pools scratch buffers for EncodeKey on read and index-maintenance
// paths, so steady-state point lookups and row application do not allocate a
// fresh key per call. Safe because lookups and deletes never retain the probe
// key; the keys a tree does retain are cut from a keyArena.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

func getKeyBuf() *[]byte  { return keyBufs.Get().(*[]byte) }
func putKeyBuf(b *[]byte) { keyBufs.Put(b) }

// ErrDuplicate is returned when inserting a primary key that already exists.
var ErrDuplicate = errors.New("storage: duplicate key")

// Table is one relation: a schema, a primary-key B-tree and any secondary
// indexes. All mutation goes through DB so it can be logged. Read methods
// share the database lock, so each call is atomic with respect to writers.
type Table struct {
	mu        *sync.RWMutex // the owning DB's lock; nil only in unit fixtures
	schema    *Schema
	primary   *btreeOf[Row] // encoded pk -> Row
	secondary []secondaryIndex
}

// secondaryIndex maps (encoded column value ++ encoded pk) -> pk Value, so
// duplicate column values coexist. The pk is the stored row's own cell.
type secondaryIndex struct {
	col  string
	ci   int // the column's position in the schema
	tree *btreeOf[Value]
}

func newTable(schema *Schema, mu *sync.RWMutex) *Table {
	return &Table{mu: mu, schema: schema, primary: newBTreeOf[Row]()}
}

// index returns the secondary index on col, or nil.
func (t *Table) index(col string) *btreeOf[Value] {
	for i := range t.secondary {
		if t.secondary[i].col == col {
			return t.secondary[i].tree
		}
	}
	return nil
}

func (t *Table) rlock() func() {
	if t.mu == nil {
		return func() {}
	}
	t.mu.RLock()
	return t.mu.RUnlock
}

// Len reports the number of rows.
func (t *Table) Len() int {
	defer t.rlock()()
	return t.primary.Len()
}

// Get fetches the row with the given primary key.
func (t *Table) Get(pk Value) (Row, error) {
	defer t.rlock()()
	return t.getLocked(pk)
}

func (t *Table) getLocked(pk Value) (Row, error) {
	kb := getKeyBuf()
	*kb = EncodeKey((*kb)[:0], pk)
	row, ok := t.primary.Get(*kb)
	putKeyBuf(kb)
	if !ok {
		return nil, fmt.Errorf("%w: table %q pk %s", ErrNotFound, t.schema.Table, pk)
	}
	return row, nil
}

// Has reports whether a row with the given primary key exists.
func (t *Table) Has(pk Value) bool {
	defer t.rlock()()
	return t.hasLocked(pk)
}

// hasLocked is Has without locking, for use under the DB write lock.
func (t *Table) hasLocked(pk Value) bool {
	kb := getKeyBuf()
	*kb = EncodeKey((*kb)[:0], pk)
	_, ok := t.primary.Get(*kb)
	putKeyBuf(kb)
	return ok
}

// keyArena is the memory the B-tree keys of one commit are cut from: Apply
// sizes it exactly from the validated batch (one allocation instead of one
// per key), and the trees retain the slices. A key the plan did not count —
// an update that moves an indexed column, any key of WAL replay, which plans
// nothing — gets its own allocation.
type keyArena struct{ buf []byte }

// take returns an empty slice with room for n bytes that the caller appends
// the key to and hands to a tree.
func (a *keyArena) take(n int) []byte {
	if cap(a.buf)-len(a.buf) < n {
		return make([]byte, 0, n)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off : off+n]
}

// secondaryKey appends the composite key of a secondary tree: the column
// value's encoding, then the row's encoded primary key.
func secondaryKey(dst []byte, val Value, pkKey []byte) []byte {
	return append(EncodeKey(dst, val), pkKey...)
}

// keyBytes is the arena room inserting row takes: its primary key (pkLen
// encoded bytes) and one composite key per secondary index.
func (t *Table) keyBytes(row Row, pkLen int) int {
	n := pkLen
	for i := range t.secondary {
		n += keyLen(row[t.secondary[i].ci]) + pkLen
	}
	return n
}

// insert stores row under pkKey (the encoding of row[0]) and indexes it,
// reporting false when the key was already there — the old row is then
// already replaced, and the caller must treat the table as corrupt. The table
// owns row from here on; pkKey is only read.
func (t *Table) insert(pkKey []byte, row Row, keys *keyArena) bool {
	if _, replaced := t.primary.swap(append(keys.take(len(pkKey)), pkKey...), row); replaced {
		return false
	}
	for i := range t.secondary {
		idx := &t.secondary[i]
		key := keys.take(keyLen(row[idx.ci]) + len(pkKey))
		idx.tree.Set(secondaryKey(key, row[idx.ci], pkKey), row[0])
	}
	return true
}

// update replaces the row stored under pkKey and moves the index entries of
// the columns that changed, reporting false when there was no such row (row
// is then already inserted: corrupt, as for insert). Ownership as for insert.
func (t *Table) update(pkKey []byte, row Row, keys *keyArena) bool {
	old, replaced := t.primary.swap(pkKey, row)
	if !replaced {
		return false
	}
	// Equal by construction (same encoded key). Keeping the old cell means
	// the index entries of unchanged columns, which hold it, need no touch
	// and the row does not carry a second copy of its key string.
	row[0] = old[0]
	for i := range t.secondary {
		idx := &t.secondary[i]
		if old[idx.ci].Equal(row[idx.ci]) {
			continue
		}
		kb := getKeyBuf()
		*kb = secondaryKey((*kb)[:0], old[idx.ci], pkKey)
		idx.tree.Delete(*kb)
		putKeyBuf(kb)
		key := keys.take(keyLen(row[idx.ci]) + len(pkKey))
		idx.tree.Set(secondaryKey(key, row[idx.ci], pkKey), row[0])
	}
	return true
}

// delete removes the row stored under pkKey and its index entries, reporting
// whether it was there.
func (t *Table) delete(pkKey []byte) bool {
	old, ok := t.primary.remove(pkKey)
	if !ok {
		return false
	}
	kb := getKeyBuf()
	for i := range t.secondary {
		idx := &t.secondary[i]
		*kb = secondaryKey((*kb)[:0], old[idx.ci], pkKey)
		idx.tree.Delete(*kb)
	}
	putKeyBuf(kb)
	return true
}

func (t *Table) applyCreateIndex(col string) error {
	ci := t.schema.Index(col)
	if ci < 0 {
		return fmt.Errorf("storage: table %q has no column %q", t.schema.Table, col)
	}
	if t.index(col) != nil {
		return nil // idempotent: replay may re-create
	}
	tree := newBTreeOf[Value]()
	t.primary.Ascend(nil, nil, func(pkKey []byte, row Row) bool {
		key := make([]byte, 0, keyLen(row[ci])+len(pkKey))
		tree.Set(secondaryKey(key, row[ci], pkKey), row[0])
		return true
	})
	t.secondary = append(t.secondary, secondaryIndex{col: col, ci: ci, tree: tree})
	return nil
}

// HasIndex reports whether a secondary index exists on col.
func (t *Table) HasIndex(col string) bool {
	defer t.rlock()()
	return t.index(col) != nil
}

// Scan walks every row in primary-key order under the read lock, so the walk
// sees one committed state; fn returning false stops the scan. Rows must not
// be mutated by fn, and fn must not call into the same DB at all: not its
// write methods, and not its reads either, because a nested read lock waits
// behind any writer queued since the scan began, and that writer waits for
// the scan.
func (t *Table) Scan(fn func(Row) bool) {
	defer t.rlock()()
	t.primary.Ascend(nil, nil, func(_ []byte, row Row) bool {
		return fn(row)
	})
}

// ScanFrom walks rows in primary-key order starting at the first key >= from
// (inclusive); fn returning false stops the scan. It is the primitive behind
// paginated reads: resume from the last key of the previous page without
// re-walking the prefix. The same locking rules as Scan apply: fn must not
// call into the same DB.
func (t *Table) ScanFrom(from Value, fn func(Row) bool) {
	defer t.rlock()()
	kb := getKeyBuf()
	defer putKeyBuf(kb)
	t.primary.Ascend(EncodeKey((*kb)[:0], from), nil, func(_ []byte, row Row) bool {
		return fn(row)
	})
}

// Lookup uses the secondary index on col to return all rows whose column
// equals val. It returns ErrNotFound if no index exists on col.
func (t *Table) Lookup(col string, val Value) ([]Row, error) {
	defer t.rlock()()
	idx := t.index(col)
	if idx == nil {
		return nil, fmt.Errorf("%w: table %q has no index on %q", ErrNotFound, t.schema.Table, col)
	}
	kb, kb2 := getKeyBuf(), getKeyBuf()
	defer putKeyBuf(kb)
	defer putKeyBuf(kb2)
	from := EncodeKey((*kb)[:0], val)
	to := append(append((*kb2)[:0], from...), 0xFF)
	var out []Row
	idx.Ascend(from, to, func(_ []byte, pk Value) bool {
		row, err := t.getLocked(pk)
		if err == nil {
			out = append(out, row)
		}
		return true
	})
	return out, nil
}

// Count returns the number of rows matching pred (nil counts all rows).
func (t *Table) Count(pred func(Row) bool) int {
	if pred == nil {
		return t.Len()
	}
	n := 0
	t.Scan(func(r Row) bool {
		if pred(r) {
			n++
		}
		return true
	})
	return n
}
