package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Options configures a DB.
type Options struct {
	// Sync selects the WAL durability policy. Default SyncAlways.
	Sync SyncPolicy
	// CommitDelay adds a deterministic pause to every SyncAlways commit, on
	// top of the real fsync, modeling the commit latency of the
	// preservation-grade storage a deployment would sit on (network volumes,
	// archival arrays). Load experiments use it so WAL-channel scaling
	// measurements don't depend on the CI host's disk-noise profile. 0 (the
	// default) means real fsync latency only.
	CommitDelay time.Duration
}

// DB is the embedded database: a set of tables, durable via its WAL.
//
// Concurrency: any number of readers OR one writer (guarded internally by an
// RWMutex). All acknowledged writes are recoverable under the chosen sync
// policy.
type DB struct {
	mu     sync.RWMutex
	dir    string
	log    *wal
	lock   *os.File // holds dir's flock until Close
	tables map[string]*Table
	closed bool

	// commit is the scratch of the one commit path, reused across commits.
	// Guarded by mu (held exclusively for the whole Apply).
	commit commitScratch
}

// commitScratch is what one Apply works in: the batch's plan (each row op's
// table and encoded primary key, written once at validation and used again at
// apply) and its WAL record. Nothing in it outlives the commit: the WAL
// writes the record to its file before Apply returns, and what the tables
// keep is cut from the commit's own allocations (Row.Clone, the key arena),
// never from here and never from the caller's slices.
type commitScratch struct {
	record []byte       // the WAL record being built, frame header first
	keys   []byte       // every row op's encoded primary key, back to back
	plan   []plannedOp  // one entry per op
	tables []batchTable // the distinct tables the batch touches
	// slots is an open-addressing set over (table, primary key) holding, per
	// key, the index+1 of the latest op seen on it: how a later op of the
	// batch learns whether an earlier one inserted or deleted its row.
	slots []int32
}

// keySeed seeds the hash of commitScratch.slots.
var keySeed = maphash.MakeSeed()

type plannedOp struct {
	tid    int // index into commitScratch.tables
	lo, hi int // the op's encoded primary key is commitScratch.keys[lo:hi]
}

type batchTable struct {
	name   string
	schema *Schema
	t      *Table // nil until applied when the batch itself creates the table
}

const (
	walFile = "wal.log"
	// snapshotFile is where a full dump of the tables once went, after which
	// the WAL was truncated. Open refuses a directory that holds one.
	snapshotFile = "snapshot.db"
)

// ErrSnapshot is what Open returns for a directory that holds a snapshot
// file. Its WAL may have been truncated when the snapshot was taken, so
// replaying the WAL alone would silently drop the rows the snapshot holds.
var ErrSnapshot = errors.New("storage: directory holds a " + snapshotFile + ", which this version does not read")

// Operation codes in WAL payloads.
const (
	opCreateTable byte = 1
	opCreateIndex byte = 2
	opInsert      byte = 3
	opUpdate      byte = 4
	opDelete      byte = 5
)

// Open opens (or creates) a database in dir, recovering state from its WAL
// if present, and refuses a dir that holds a snapshot file (ErrSnapshot). It
// locks dir first and holds the lock until Close: while one DB has dir open,
// every other Open of it fails with ErrLocked, and a failed Open leaves it
// unlocked.
func Open(dir string, opts Options) (_ *DB, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir %q: %w", dir, err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	db := &DB{dir: dir, lock: lock, tables: make(map[string]*Table)}

	snapPath := filepath.Join(dir, snapshotFile)
	if _, err := os.Stat(snapPath); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrSnapshot, snapPath)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("storage: stat %s: %w", snapPath, err)
	}

	// Replay the WAL, truncating a torn tail.
	walPath := filepath.Join(dir, walFile)
	stop, err := readWAL(walPath, db.applyPayload)
	if err != nil {
		return nil, fmt.Errorf("storage: wal replay: %w", err)
	}
	if stop.damaged {
		return nil, fmt.Errorf("%w: wal %s has a damaged record at offset %d", ErrCorrupt, walPath, stop.intact)
	}
	if fileSize(walPath) > stop.intact {
		if err := os.Truncate(walPath, stop.intact); err != nil {
			return nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
	}

	db.log, err = openWAL(walPath, opts.Sync)
	if err != nil {
		return nil, err
	}
	db.log.delay = opts.CommitDelay
	return db, nil
}

// fileSize is the size of the file at path, 0 when there is none.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// Op is one logical mutation, built with the Insert/Update/Delete/
// CreateTable/CreateIndex constructors and applied atomically via Apply.
type Op struct {
	code   byte
	table  string
	row    Row     // insert/update
	pk     Value   // delete
	schema *Schema // create table
	column string  // create index
}

// InsertOp inserts row into table.
func InsertOp(table string, row Row) Op { return Op{code: opInsert, table: table, row: row} }

// UpdateOp replaces the row with row's primary key in table.
func UpdateOp(table string, row Row) Op { return Op{code: opUpdate, table: table, row: row} }

// DeleteOp removes the row with primary key pk from table.
func DeleteOp(table string, pk Value) Op { return Op{code: opDelete, table: table, pk: pk} }

// CreateTableOp creates a table from schema.
func CreateTableOp(schema *Schema) Op { return Op{code: opCreateTable, schema: schema} }

// CreateIndexOp creates a secondary index on table.column.
func CreateIndexOp(table, column string) Op {
	return Op{code: opCreateIndex, table: table, column: column}
}

type schemaJSON struct {
	Table   string `json:"table"`
	Columns []struct {
		Name     string `json:"name"`
		Kind     uint8  `json:"kind"`
		Nullable bool   `json:"nullable"`
	} `json:"columns"`
}

func encodeOp(dst []byte, op *Op) ([]byte, error) {
	dst = append(dst, op.code)
	switch op.code {
	case opCreateTable:
		var sj schemaJSON
		sj.Table = op.schema.Table
		for _, c := range op.schema.Columns {
			sj.Columns = append(sj.Columns, struct {
				Name     string `json:"name"`
				Kind     uint8  `json:"kind"`
				Nullable bool   `json:"nullable"`
			}{c.Name, uint8(c.Kind), c.Nullable})
		}
		blob, err := json.Marshal(sj)
		if err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, uint64(len(blob)))
		dst = append(dst, blob...)
	case opCreateIndex:
		dst = appendString(dst, op.table)
		dst = appendString(dst, op.column)
	case opInsert, opUpdate:
		dst = appendString(dst, op.table)
		dst = EncodeRow(dst, op.row)
	case opDelete:
		dst = appendString(dst, op.table)
		dst = EncodeRow(dst, Row{op.pk})
	default:
		return nil, fmt.Errorf("storage: unknown op code %d", op.code)
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readString returns the length-prefixed string at the head of buf, as a
// view into buf, and the bytes consumed.
func readString(buf []byte) ([]byte, int, error) {
	l, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf)-sz) < l {
		return nil, 0, fmt.Errorf("storage: truncated string in op")
	}
	return buf[sz : sz+int(l)], sz + int(l), nil
}

// applyPayload decodes one WAL record (a batch of ops) and applies it to the
// in-memory state. Only Open's replay comes here: a live commit applies the
// ops it validated (applyPlanned) and never re-reads its own record.
// Everything kept is copied out of payload (DecodeRow, the schema JSON, the
// index column name), so the caller may reuse the buffer.
func (db *DB) applyPayload(payload []byte) error {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return fmt.Errorf("storage: corrupt batch header")
	}
	off := sz
	for i := uint64(0); i < n; i++ {
		if off >= len(payload) {
			return fmt.Errorf("storage: truncated batch at op %d", i)
		}
		code := payload[off]
		off++
		switch code {
		case opCreateTable:
			l, sz := binary.Uvarint(payload[off:])
			if sz <= 0 || uint64(len(payload)-off-sz) < l {
				return fmt.Errorf("storage: truncated schema blob")
			}
			off += sz
			var sj schemaJSON
			if err := json.Unmarshal(payload[off:off+int(l)], &sj); err != nil {
				return fmt.Errorf("storage: decode schema: %w", err)
			}
			off += int(l)
			cols := make([]Column, len(sj.Columns))
			for i, c := range sj.Columns {
				cols[i] = Column{Name: c.Name, Kind: Kind(c.Kind), Nullable: c.Nullable}
			}
			schema, err := NewSchema(sj.Table, cols...)
			if err != nil {
				return err
			}
			if _, exists := db.tables[schema.Table]; !exists {
				db.tables[schema.Table] = newTable(schema, &db.mu)
			}
		case opCreateIndex:
			table, n, err := readString(payload[off:])
			if err != nil {
				return err
			}
			off += n
			col, n, err := readString(payload[off:])
			if err != nil {
				return err
			}
			off += n
			t, ok := db.tables[string(table)]
			if !ok {
				return fmt.Errorf("storage: create index on unknown table %q", table)
			}
			if err := t.applyCreateIndex(string(col)); err != nil {
				return err
			}
		case opInsert, opUpdate, opDelete:
			table, n, err := readString(payload[off:])
			if err != nil {
				return err
			}
			off += n
			row, n, err := DecodeRow(payload[off:])
			if err != nil {
				return err
			}
			off += n
			t, ok := db.tables[string(table)]
			if !ok {
				return fmt.Errorf("storage: op on unknown table %q", table)
			}
			if len(row) == 0 {
				return fmt.Errorf("storage: op on table %q without a primary key", table)
			}
			// Replay validates nothing up front, so an op the state
			// contradicts is an error (Open fails), and plans nothing, so
			// every key a tree retains is its own allocation (no arena).
			kb := getKeyBuf()
			*kb = EncodeKey((*kb)[:0], row[0])
			contradiction := ErrNotFound
			switch code {
			case opInsert:
				ok, contradiction = t.insert(*kb, row, &keyArena{}), ErrDuplicate
			case opUpdate:
				ok = t.update(*kb, row, &keyArena{})
			case opDelete:
				ok = t.delete(*kb)
			}
			putKeyBuf(kb)
			if !ok {
				return fmt.Errorf("%w: table %q pk %s", contradiction, table, row[0])
			}
		default:
			return fmt.Errorf("storage: unknown op code %d in batch", code)
		}
	}
	return nil
}

// table resolves name for the batch being planned: one of the tables the
// batch already touched (consecutive ops on one table hit the first test), a
// table the batch itself creates, or a live one. It returns the index into
// c.tables, or -1 when there is no such table.
func (c *commitScratch) table(db *DB, name string) int {
	if n := len(c.tables); n > 0 && c.tables[n-1].name == name {
		return n - 1
	}
	for i := range c.tables {
		if c.tables[i].name == name {
			return i
		}
	}
	t := db.tables[name]
	if t == nil {
		return -1
	}
	c.tables = append(c.tables, batchTable{name: name, schema: t.schema, t: t})
	return len(c.tables) - 1
}

// resetSlots empties the key set and sizes it for a batch of n ops (a power
// of two at least 2n, so probes stay short).
func (c *commitScratch) resetSlots(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	if cap(c.slots) < size {
		c.slots = make([]int32, size)
		return
	}
	c.slots = c.slots[:size]
	clear(c.slots)
}

// latest records op i as the latest on its (table, key) and returns the
// index of the previous latest, or -1 when i is the batch's first op on it.
func (c *commitScratch) latest(i int) int {
	p := c.plan[i]
	key := c.keys[p.lo:p.hi]
	mask := uint64(len(c.slots) - 1)
	for h := maphash.Bytes(keySeed, key) + uint64(p.tid); ; h++ {
		slot := &c.slots[h&mask]
		if *slot == 0 {
			*slot = int32(i + 1)
			return -1
		}
		q := c.plan[*slot-1]
		if q.tid == p.tid && bytes.Equal(c.keys[q.lo:q.hi], key) {
			prev := int(*slot - 1)
			*slot = int32(i + 1)
			return prev
		}
	}
}

// planOps checks every op against current state before anything is logged,
// so a batch either fully applies or is rejected up front, and leaves in
// db.commit what applyPlanned needs to apply it without looking anything up
// twice. It returns the bytes of B-tree key the batch's inserts will retain.
func (db *DB) planOps(ops []Op) (keyBytes int, err error) {
	c := &db.commit
	c.keys, c.plan, c.tables = c.keys[:0], c.plan[:0], c.tables[:0]
	// A one-op batch has no earlier op to agree with.
	track := len(ops) > 1
	if track {
		c.resetSlots(len(ops))
	}
	for i := range ops {
		op := &ops[i]
		switch op.code {
		case opCreateTable:
			if op.schema == nil {
				return 0, fmt.Errorf("storage: create table with nil schema")
			}
			if c.table(db, op.schema.Table) >= 0 {
				return 0, fmt.Errorf("storage: table %q already exists", op.schema.Table)
			}
			// The table gets its own schema, as a replayed one does: the
			// caller keeps the column slice it passed.
			schema, err := NewSchema(op.schema.Table, append([]Column(nil), op.schema.Columns...)...)
			if err != nil {
				return 0, err
			}
			c.tables = append(c.tables, batchTable{name: schema.Table, schema: schema})
			c.plan = append(c.plan, plannedOp{tid: len(c.tables) - 1})
		case opCreateIndex:
			tid := c.table(db, op.table)
			if tid < 0 {
				return 0, fmt.Errorf("storage: index on unknown table %q", op.table)
			}
			if c.tables[tid].schema.Index(op.column) < 0 {
				return 0, fmt.Errorf("storage: table %q has no column %q", op.table, op.column)
			}
			c.plan = append(c.plan, plannedOp{tid: tid})
		case opInsert, opUpdate, opDelete:
			tid := c.table(db, op.table)
			if tid < 0 {
				return 0, fmt.Errorf("storage: %s unknown table %q", opVerb[op.code], op.table)
			}
			bt := &c.tables[tid]
			pk := op.pk
			if op.code != opDelete {
				if err := bt.schema.Validate(op.row); err != nil {
					return 0, err
				}
				pk = op.row[0]
			}
			lo := len(c.keys)
			c.keys = EncodeKey(c.keys, pk)
			c.plan = append(c.plan, plannedOp{tid: tid, lo: lo, hi: len(c.keys)})
			prev := -1
			if track {
				prev = c.latest(i)
			}
			var exists bool
			if prev >= 0 {
				exists = ops[prev].code != opDelete
			} else if bt.t != nil {
				_, exists = bt.t.primary.Get(c.keys[lo:])
			}
			switch {
			case op.code == opInsert && exists:
				return 0, fmt.Errorf("%w: table %q pk %s", ErrDuplicate, op.table, pk)
			case op.code != opInsert && !exists:
				return 0, fmt.Errorf("%w: table %q pk %s", ErrNotFound, op.table, pk)
			case op.code == opInsert && bt.t != nil:
				keyBytes += bt.t.keyBytes(op.row, len(c.keys)-lo)
			case op.code == opInsert:
				keyBytes += len(c.keys) - lo
			}
		default:
			return 0, fmt.Errorf("storage: unknown op code %d", op.code)
		}
	}
	return keyBytes, nil
}

// opVerb words the unknown-table error of each row op.
var opVerb = [...]string{opInsert: "insert into", opUpdate: "update on", opDelete: "delete on"}

// applyPlanned applies the batch planOps just validated to the in-memory
// state: the ops themselves, not their WAL record. Each row is copied once
// (Row.Clone: the cell array and any bytes payload; strings are immutable and
// shared with the caller) and each retained key is cut from keys, so nothing
// stored aliases memory the caller may reuse.
func (db *DB) applyPlanned(ops []Op, keys *keyArena) {
	c := &db.commit
	for i := range ops {
		op, p := &ops[i], c.plan[i]
		bt := &c.tables[p.tid]
		ok := true
		switch op.code {
		case opCreateTable:
			bt.t = newTable(bt.schema, &db.mu)
			db.tables[bt.name] = bt.t
		case opCreateIndex:
			ok = bt.t.applyCreateIndex(op.column) == nil
		case opInsert:
			ok = bt.t.insert(c.keys[p.lo:p.hi], op.row.Clone(), keys)
		case opUpdate:
			ok = bt.t.update(c.keys[p.lo:p.hi], op.row.Clone(), keys)
		case opDelete:
			ok = bt.t.delete(c.keys[p.lo:p.hi])
		}
		if !ok {
			// planOps guarantees this cannot happen; if it does, state and
			// log have diverged and continuing would corrupt the database.
			panic(fmt.Sprintf("storage: post-log apply of op %d (code %d, table %q) contradicts its validation", i, op.code, bt.name))
		}
	}
}

// Apply validates, logs and applies a batch of operations atomically: either
// every op is durable and applied, or none is. It retains none of the
// caller's slices: rows and bytes payloads may be reused once it returns.
// It is the one commit path, DDL included: validate, encode, log, then apply
// the ops that were validated.
func (db *DB) Apply(ops ...Op) error {
	if len(ops) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("storage: db is closed")
	}
	keyBytes, err := db.planOps(ops)
	if err != nil {
		return err
	}
	rec, err := encodeBatch(db.commit.record[:0], ops)
	if err != nil {
		return err
	}
	db.commit.record = rec
	if err := db.log.Append(rec); err != nil {
		return err
	}
	var keys keyArena
	if keyBytes > 0 {
		keys.buf = make([]byte, 0, keyBytes)
	}
	db.applyPlanned(ops, &keys)
	return nil
}

// encodeBatch appends the WAL record of ops to dst: walHeader bytes that
// wal.Append fills with the frame header, then the payload.
func encodeBatch(dst []byte, ops []Op) ([]byte, error) {
	dst = append(dst, make([]byte, walHeader)...)
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	var err error
	for i := range ops {
		if dst, err = encodeOp(dst, &ops[i]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// CreateTable creates a new table.
func (db *DB) CreateTable(schema *Schema) error { return db.Apply(CreateTableOp(schema)) }

// CreateIndex creates a secondary index on table.column, backfilled from
// existing rows.
func (db *DB) CreateIndex(table, column string) error { return db.Apply(CreateIndexOp(table, column)) }

// Insert adds one row.
func (db *DB) Insert(table string, row Row) error { return db.Apply(InsertOp(table, row)) }

// Update replaces one row by primary key.
func (db *DB) Update(table string, row Row) error { return db.Apply(UpdateOp(table, row)) }

// Table returns a read handle for the named table, or nil if absent.
// The handle must only be used for reads; mutations go through DB. Each
// read method is individually atomic with respect to writers (the handle
// shares the database lock); consistency across separate calls is not
// guaranteed while writers run.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// Sync fsyncs the WAL, regardless of the configured sync policy (except
// SyncNever). Every acknowledged commit is already in the file; Sync makes
// them survive power loss too. Group-committing writers call it to make a
// run's tail durable — e.g. the provenance BatchWriter's final flush —
// without paying fsync-per-Apply.
func (db *DB) Sync() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return fmt.Errorf("storage: db is closed")
	}
	return db.log.Sync()
}

// Close fsyncs (except under SyncNever) and closes the database.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	err := db.log.Close()
	if lerr := db.lock.Close(); err == nil {
		err = lerr
	}
	return err
}

// WALSize reports the current WAL length in bytes.
func (db *DB) WALSize() int64 { return db.log.Size() }
