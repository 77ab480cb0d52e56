package storage

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// lockChildEnv switches TestOpenLocksDirectory into its child half: the test
// binary, re-run with the parent's directory in this variable, opens it from
// another process and prints what Open said.
const lockChildEnv = "STORAGE_LOCK_TEST_DIR"

// TestOpenLocksDirectory: while one DB has a directory open, a second Open of
// it fails with ErrLocked — in this process and in another — and once the
// first closes, the directory opens again with its rows.
func TestOpenLocksDirectory(t *testing.T) {
	if dir := os.Getenv(lockChildEnv); dir != "" {
		db, err := Open(dir, Options{Sync: SyncNever})
		if err == nil {
			db.Close()
		}
		fmt.Printf("child open: locked=%v (%v)\n", errors.Is(err, ErrLocked), err)
		return
	}
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchema("t", Column{Name: "k", Kind: KindString})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", Row{S("a")}); err != nil {
		t.Fatal(err)
	}

	if second, err := Open(dir, Options{Sync: SyncNever}); !errors.Is(err, ErrLocked) {
		if second != nil {
			second.Close()
		}
		t.Fatalf("second Open in-process = %v, want ErrLocked", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOpenLocksDirectory$", "-test.count=1")
	cmd.Env = append(os.Environ(), lockChildEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "child open: locked=true") {
		t.Fatalf("Open from another process was not refused with ErrLocked:\n%s", out)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer db.Close()
	if n := db.Table("t").Len(); n != 1 {
		t.Fatalf("reopened table holds %d rows, want 1", n)
	}
}
