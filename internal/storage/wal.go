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

// SyncPolicy controls when the WAL calls fsync.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs on every commit (durable, slowest).
	SyncAlways SyncPolicy = iota
	// SyncOnClose fsyncs only on Close and Snapshot (fast, loses the tail on crash).
	SyncOnClose
	// SyncNever never fsyncs (benchmarking only).
	SyncNever
)

// ErrCorrupt is what Open returns, wrapped, for damage it must not repair by
// dropping data: a snapshot that does not replay to its end, or a WAL record
// that fails its CRC with more log after it. Open then leaves both files as
// they are.
var ErrCorrupt = errors.New("storage: corrupt record")

// Castagnoli is the package's single CRC32-C table, shared by the WAL, the
// snapshot codec, and external consumers that frame records the same way
// (the archive AIP codec). crc32.MakeTable memoizes internally, but a single
// package-level table makes the shared polynomial explicit.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wal record framing:
//
//	4 bytes little-endian payload length
//	4 bytes little-endian CRC32 (Castagnoli) of the payload
//	payload
type wal struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	policy SyncPolicy
	delay  time.Duration
	size   int64
	crcTab *crc32.Table
}

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
	return &wal{
		f:      f,
		w:      bufio.NewWriterSize(f, 1<<16),
		policy: policy,
		size:   st.Size(),
		crcTab: Castagnoli,
	}, nil
}

// Append writes one framed record and applies the sync policy.
func (l *wal) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, l.crcTab))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	l.size += int64(8 + len(payload))
	if l.policy == SyncAlways {
		if err := l.w.Flush(); err != nil {
			return fmt.Errorf("storage: wal flush: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("storage: wal sync: %w", err)
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

// Sync flushes buffers and fsyncs regardless of policy.
func (l *wal) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.policy == SyncNever {
		return nil
	}
	return l.f.Sync()
}

// Truncate discards all WAL contents (called after a snapshot).
func (l *wal) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	l.w.Reset(l.f)
	l.size = 0
	return nil
}

// Close flushes, optionally fsyncs, and closes the file.
func (l *wal) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	if l.policy != SyncNever {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}

func newBufWriter(f *os.File) *bufio.Writer { return bufio.NewWriterSize(f, 1<<16) }

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
