package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// replayWAL is readWAL's intact offset: the view of a replay that only asks
// how far the log could be read.
func replayWAL(path string, fn func(payload []byte) error) (int64, error) {
	stop, err := readWAL(path, fn)
	return stop.intact, err
}

// flipByte inverts one byte of the file at path.
func flipByte(t *testing.T, path string, at int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[at] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertOpenFails opens dir, expecting an error that is want, and checks
// that the open left the files named byte for byte as they were, and dir
// unlocked.
func assertOpenFails(t *testing.T, dir string, want error, files ...string) {
	t.Helper()
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	before := make([][]byte, len(files))
	for i, name := range files {
		before[i] = read(name)
	}
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err == nil {
		n := 0
		if tab := db.Table("recordings"); tab != nil {
			n = tab.Len()
		}
		db.Close()
		t.Fatalf("Open succeeded with %d rows, want %v", n, want)
	}
	if !errors.Is(err, want) {
		t.Fatalf("Open = %v, want %v", err, want)
	}
	for i, name := range files {
		if !bytes.Equal(read(name), before[i]) {
			t.Fatalf("the failed Open changed %s", name)
		}
	}
	// The failed Open released the directory: the next opener meets the
	// same refusal again, not the lock.
	lock, err := lockDir(dir)
	if err != nil {
		t.Fatalf("failed Open left the directory locked: %v", err)
	}
	lock.Close()
}

// assertOpenCorrupt checks that Open refuses dir's WAL as damaged and
// leaves it as it was.
func assertOpenCorrupt(t *testing.T, dir string) {
	t.Helper()
	assertOpenFails(t, dir, ErrCorrupt, walFile)
}

// TestOpenRefusesSnapshotFile: a directory with a snapshot.db may hold a WAL
// the snapshot truncated, so replaying the WAL alone would drop the
// snapshot's rows. Open refuses it with ErrSnapshot and leaves both files
// and the lock as they were.
func TestOpenRefusesSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("recordings", Row{S("r1"), S("sp"), I(1), Null()}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("rows the WAL no longer holds"), 0o644); err != nil {
		t.Fatal(err)
	}
	assertOpenFails(t, dir, ErrSnapshot, walFile, snapshotFile)
}

// TestOpenRejectsDamagedWALRecord: in a SyncAlways log only the final record
// can be torn by a crash. A complete record in its middle that fails its CRC
// is damage: Open must refuse it rather than cut it away with every
// acknowledged commit after it.
func TestOpenRejectsDamagedWALRecord(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Insert("recordings", Row{S(fmt.Sprintf("r%04d", i)), S("sp"), I(int64(i)), Null()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// The first payload byte of the record that straddles the log's middle.
	var off int64
	for {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if off+8+n > int64(len(data))/2 {
			break
		}
		off += 8 + n
	}
	flipByte(t, walPath, off+8)
	assertOpenCorrupt(t, dir)

	// The same record as the log's last is a torn tail: Open truncates it.
	if err := os.WriteFile(walPath, data[:off+8+int64(binary.LittleEndian.Uint32(data[off:]))], 0o644); err != nil {
		t.Fatal(err)
	}
	flipByte(t, walPath, off+8)
	db, err = Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open with a damaged final record: %v", err)
	}
	defer db.Close()
	if size := fileSize(walPath); size != off {
		t.Fatalf("wal is %d bytes after the torn tail, want %d", size, off)
	}
}

// TestRandomizedCrashRecovery simulates crashes at arbitrary WAL byte
// offsets: after truncating the log mid-record, reopening must recover a
// consistent prefix of the committed history — never a corrupted or partial
// batch.
func TestRandomizedCrashRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		db, err := Open(dir, Options{Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		schema := MustSchema("t",
			Column{Name: "k", Kind: KindString},
			Column{Name: "seq", Kind: KindInt},
			Column{Name: "payload", Kind: KindString, Nullable: true})
		if err := db.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
		// Commit a mix of single ops and batches.
		committed := 0
		for i := 0; i < 60; i++ {
			if rng.Intn(4) == 0 {
				// Atomic pair.
				err = db.Apply(
					InsertOp("t", Row{S(fmt.Sprintf("k%04d-a", i)), I(int64(i)), S("batched")}),
					InsertOp("t", Row{S(fmt.Sprintf("k%04d-b", i)), I(int64(i)), S("batched")}),
				)
			} else {
				err = db.Insert("t", Row{S(fmt.Sprintf("k%04d", i)), I(int64(i)), S("single")})
			}
			if err != nil {
				t.Fatal(err)
			}
			committed++
		}
		db.Close()

		walPath := filepath.Join(dir, walFile)
		st, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		// Crash: truncate at a random offset.
		cut := rng.Int63n(st.Size() + 1)
		if err := os.Truncate(walPath, cut); err != nil {
			t.Fatal(err)
		}

		db2, err := Open(dir, Options{Sync: SyncAlways})
		if err != nil {
			t.Fatalf("trial %d: reopen after crash at %d/%d: %v", trial, cut, st.Size(), err)
		}
		tab := db2.Table("t")
		if tab == nil {
			// The create-table record itself was cut: acceptable only if cut
			// happened before the first record completed.
			if cut > 64 {
				t.Fatalf("trial %d: table lost with %d bytes intact", trial, cut)
			}
			db2.Close()
			continue
		}
		// Consistency: batched pairs are atomic — a/b exist together or not
		// at all; every surviving row decodes fully.
		for i := 0; i < 60; i++ {
			a := tab.Has(S(fmt.Sprintf("k%04d-a", i)))
			bb := tab.Has(S(fmt.Sprintf("k%04d-b", i)))
			if a != bb {
				t.Fatalf("trial %d: batch %d torn: a=%v b=%v", trial, i, a, bb)
			}
		}
		tab.Scan(func(r Row) bool {
			if len(r) != 3 || r[0].Kind() != KindString {
				t.Fatalf("trial %d: corrupt row %v", trial, r)
			}
			return true
		})
		// Recovery is a prefix: the set of present sequence numbers must be
		// downward closed over the insertion order (no gaps).
		present := map[int64]bool{}
		tab.Scan(func(r Row) bool {
			present[r[1].Int()] = true
			return true
		})
		maxSeq := int64(-1)
		for s := range present {
			if s > maxSeq {
				maxSeq = s
			}
		}
		for s := int64(0); s <= maxSeq; s++ {
			if !present[s] {
				t.Fatalf("trial %d: recovery gap at seq %d (max %d)", trial, s, maxSeq)
			}
		}
		// Post-recovery writes work.
		if err := db2.Insert("t", Row{S("post-crash"), I(999), Null()}); err != nil {
			t.Fatalf("trial %d: post-recovery insert: %v", trial, err)
		}
		db2.Close()
	}
}
