package storage

import (
	"errors"
	"fmt"
)

// ErrStaleFence is returned by ApplyFenced and AdvanceFence when the caller's
// fencing token is older than the durable token for the resource. A writer
// seeing it must stop: another holder has taken ownership and every further
// write from this holder would interleave with the new owner's.
var ErrStaleFence = errors.New("storage: stale fencing token")

// fencesTable holds one durable row per fenced resource: (name, token). It is
// created lazily by the first AdvanceFence and written through the normal op
// path, so WAL replay and snapshots restore tokens exactly like user data.
const fencesTable = "sys_fences"

func fencesSchema() *Schema {
	s, err := NewSchema(fencesTable,
		Column{Name: "name", Kind: KindString},
		Column{Name: "token", Kind: KindInt},
	)
	if err != nil {
		panic(err) // static schema; cannot fail
	}
	return s
}

// fenceTokenLocked reads the durable token for name; 0 when the fences table
// or the row is absent. Callers hold db.mu (read or write).
func (db *DB) fenceTokenLocked(name string) int64 {
	t := db.tables[fencesTable]
	if t == nil {
		return 0
	}
	row, err := t.getLocked(S(name))
	if err != nil {
		return 0
	}
	return row[1].Int()
}

// FenceToken returns the durable fencing token for name (0 if never advanced).
func (db *DB) FenceToken(name string) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.fenceTokenLocked(name)
}

// ApplyFenced is Apply guarded by a fencing token: the batch is validated,
// logged and applied only if token is at least the durable token for name.
// A holder whose lease was stolen (token advanced past its own) gets
// ErrStaleFence and zero writes — the check and the apply happen under one
// exclusive lock, so a stale holder can never interleave with the new owner.
// Equality is allowed: the current holder keeps writing under its own token.
func (db *DB) ApplyFenced(name string, token int64, ops ...Op) error {
	if len(ops) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("storage: db is closed")
	}
	if cur := db.fenceTokenLocked(name); token < cur {
		return fmt.Errorf("%w: %q token %d < %d", ErrStaleFence, name, token, cur)
	}
	return db.applyLocked(ops)
}

// AdvanceFence durably moves the token for name forward. Tokens are strictly
// monotonic: advancing to a token <= the stored one returns ErrStaleFence, so
// two stealers racing to the same token cannot both win. The write goes
// through the normal op path (WAL + snapshot) and is fsynced immediately —
// an acknowledged fence advance survives a crash even under SyncOnClose.
//
// with, when given, is applied in the same atomic batch as the advance: the
// state the new token owner must establish (a lease row) can never lag the
// fence, and an advance whose companion write is rejected does not happen.
func (db *DB) AdvanceFence(name string, token int64, with ...Op) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("storage: db is closed")
	}
	var ops []Op
	t := db.tables[fencesTable]
	if t == nil {
		ops = append(ops, CreateTableOp(fencesSchema()))
	}
	cur := db.fenceTokenLocked(name)
	if token <= cur {
		return fmt.Errorf("%w: advance %q to %d but token is %d", ErrStaleFence, name, token, cur)
	}
	row := Row{S(name), I(token)}
	if t != nil && t.hasLocked(S(name)) {
		ops = append(ops, UpdateOp(fencesTable, row))
	} else {
		ops = append(ops, InsertOp(fencesTable, row))
	}
	if err := db.applyLocked(append(ops, with...)); err != nil {
		return err
	}
	return db.log.Sync()
}
