package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// SyncPolicy controls when the WAL calls fsync. Under every policy Apply
// writes its commit's record to the file before it returns, so a commit is
// never held back in the process: what a policy chooses is which deaths an
// acknowledged commit survives.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs every commit before Apply returns: an acknowledged
	// commit survives power loss (durable, slowest).
	SyncAlways SyncPolicy = iota
	// SyncOnClose fsyncs only at Sync and Close: an acknowledged commit
	// survives the process's death (kill -9, OOM) but not power loss.
	SyncOnClose
	// SyncNever never fsyncs, not even at Sync or Close (benchmarking only).
	SyncNever
)

// ErrCorrupt is what Open returns, wrapped, for damage it must not repair by
// dropping data: a WAL record that fails its CRC with more log after it.
// Open then leaves the WAL as it is.
var ErrCorrupt = errors.New("storage: corrupt record")

// Castagnoli is the package's single CRC32-C table, shared by the WAL and
// external consumers that frame records the same way (the archive AIP
// codec). crc32.MakeTable memoizes internally, but a single package-level
// table makes the shared polynomial explicit.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wal record framing:
//
//	4 bytes little-endian payload length
//	4 bytes little-endian CRC32 (Castagnoli) of the payload
//	payload
type wal struct {
	mu     sync.Mutex
	f      *os.File
	policy SyncPolicy
	delay  time.Duration
	size   int64
	// err is the first failed Append's error, returned by every later one:
	// once a write or fsync has failed, what the file holds past the last
	// acknowledged record is unknown, and no record may follow it.
	err error
}

// walHeader is the size of a record's frame header: the bytes encodeBatch
// leaves free at the front of a record for Append to fill.
const walHeader = 8

func openWAL(path string, policy SyncPolicy) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat wal: %w", err)
	}
	return &wal{f: f, policy: policy, size: st.Size()}, nil
}

// Append frames one record, writes it to the file with one write and applies
// the sync policy. rec is the record with walHeader free bytes in front of
// its payload, which Append fills with the frame header, so the payload is
// written where it was encoded, not copied.
func (l *wal) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	payload := rec[walHeader:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, Castagnoli))
	if _, err := l.f.Write(rec); err != nil {
		l.err = fmt.Errorf("storage: wal append: %w", err)
		return l.err
	}
	l.size += int64(len(rec))
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("storage: wal sync: %w", err)
			return l.err
		}
		if l.delay > 0 {
			// Simulated device commit latency: occupies this WAL's commit
			// channel exactly like a slower fsync would (the lock is held),
			// without touching any other WAL. See Options.CommitDelay.
			time.Sleep(l.delay)
		}
	}
	return nil
}

// Size returns the current WAL length in bytes.
func (l *wal) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Sync fsyncs regardless of policy, except under SyncNever.
func (l *wal) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.policy == SyncNever {
		return nil
	}
	return l.f.Sync()
}

// Close fsyncs, except under SyncNever, and closes the file.
func (l *wal) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.policy != SyncNever {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// walStop is where and how a log replay ended.
type walStop struct {
	// intact is the end of the last intact record: everything before it was
	// replayed, everything after it was not.
	intact int64
	// damaged marks a complete record that failed its CRC with more log
	// after it. A record torn by a crash is the last thing in the log, so
	// this is damage, not a torn tail.
	damaged bool
}

// readWAL streams every intact record in the log at path to fn, in order,
// and reports where and how it stopped. It never errors on what it reads —
// garbage ends the replay, and the caller decides from the walStop whether
// that is a torn tail (a record cut short, or a final record that fails its
// CRC: it was never acknowledged) or damage. A length header damaged to
// point past the end of the file looks like a torn tail too: nothing after
// it can be framed.
//
// Every record is read into one buffer, reused for the next: fn must copy
// what it keeps (applyPayload does). A length header is believed only as far
// as the file goes — a record claiming more bytes than remain is a torn tail,
// not a reason to allocate them — so the buffer never outgrows the file.
func readWAL(path string, fn func(payload []byte) error) (walStop, error) {
	var stop walStop
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return stop, nil
		}
		return stop, fmt.Errorf("storage: open wal for replay: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return stop, fmt.Errorf("storage: stat wal for replay: %w", err)
	}
	size := st.Size()
	tab := Castagnoli
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [8]byte
	var buf []byte
	for {
		off := stop.intact
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return stop, nil // clean EOF or torn header: stop here
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > size-off-8 {
			return stop, nil // torn payload: the header promises more than the file holds
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, min(max(n, 2*int64(cap(buf))), size))
		}
		payload := buf[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return stop, nil // torn payload (the file shrank under us)
		}
		if crc32.Checksum(payload, tab) != want {
			stop.damaged = off+8+n < size
			return stop, nil
		}
		if err := fn(payload); err != nil {
			return stop, err
		}
		stop.intact += 8 + n
	}
}
