package storage

// TableSource hands out read handles for named tables. Both the live *DB
// (reads take the shared database lock) and a point-in-time *View (reads are
// lock-free against immutable copies) implement it, so repositories can run
// the same query code against either.
type TableSource interface {
	// Table returns a read handle for the named table, or nil if absent.
	Table(name string) *Table
}

// View is an immutable point-in-time read handle over every table in the
// database. Acquiring one is O(tables): each table's B-trees are cloned by
// reference (copy-on-write), so the view costs a few small allocations, not
// a data copy. Reads through a view never touch the database lock — the
// query-heavy API endpoints scan a view while writers keep committing — and
// always observe exactly the state at acquisition time.
type View struct {
	tables map[string]*Table
}

// View captures a consistent snapshot of all tables. It takes the writer
// lock only for the clone instant (cloning invalidates in-place ownership of
// the live trees, which must not race an Apply).
func (db *DB) View() *View {
	db.mu.Lock()
	defer db.mu.Unlock()
	tables := make(map[string]*Table, len(db.tables))
	for name, t := range db.tables {
		tables[name] = t.snapshotLocked()
	}
	return &View{tables: tables}
}

// Table returns the view's read handle for the named table, or nil if the
// table did not exist when the view was taken.
func (v *View) Table(name string) *Table { return v.tables[name] }

// Tables returns the names of all tables in the view (unordered).
func (v *View) Tables() []string {
	names := make([]string, 0, len(v.tables))
	for n := range v.tables {
		names = append(names, n)
	}
	return names
}

// snapshotLocked clones the table for lock-free reading. The returned handle
// has no mutex (rlock no-ops) because nothing can ever mutate it: the live
// side copies shared B-tree nodes before writing them. Caller holds the DB
// writer lock.
func (t *Table) snapshotLocked() *Table {
	out := &Table{
		schema:    t.schema,
		primary:   t.primary.clone(),
		secondary: make([]secondaryIndex, len(t.secondary)),
	}
	for i, idx := range t.secondary {
		idx.tree = idx.tree.clone()
		out.secondary[i] = idx
	}
	return out
}
