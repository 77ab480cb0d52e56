package archive

import (
	"fmt"
	"os"
)

// Fault injection for the archive's own verification: the experiment harness
// and tests damage replicas the same way the world does — silent bit flips,
// lost files, truncated writes — and then assert the scrubber finds and
// fixes every one of them. These helpers bypass the Store on purpose; they
// model hardware, not clients.

// CorruptReplica flips one byte of the object's replica on the given volume
// at offset (negative offsets count from the end). The file length and
// timestamps are unchanged — exactly the damage only a re-hash can see.
func CorruptReplica(volume, id string, offset int64) error {
	path := replicaPath(volume, id)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("archive: corrupt replica: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return fmt.Errorf("archive: corrupt replica: %s is empty", path)
	}
	if offset < 0 {
		offset += st.Size()
	}
	if offset < 0 || offset >= st.Size() {
		return fmt.Errorf("archive: corrupt replica: offset %d out of range [0,%d)", offset, st.Size())
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		return err
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], offset); err != nil {
		return err
	}
	return f.Sync()
}

// DeleteReplica removes the object's replica file from the given volume —
// replica loss (dead disk, fat-fingered rm).
func DeleteReplica(volume, id string) error {
	if err := os.Remove(replicaPath(volume, id)); err != nil {
		return fmt.Errorf("archive: delete replica: %w", err)
	}
	return nil
}
