package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// ErrLocked is returned by Open when another opener, in this process or
// another, holds the directory: one DB owns a directory at a time.
var ErrLocked = errors.New("storage: directory locked by another opener")

const lockFile = "LOCK"

// lockDir takes an exclusive, non-blocking flock on dir's LOCK file and
// returns the open file that holds it; closing the file releases the lock,
// and so does the death of the process. A flock belongs to the open file, so
// a second Open in the same process conflicts exactly like one in another.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		return nil, fmt.Errorf("storage: lock %s: %w", dir, err)
	}
	return f, nil
}
