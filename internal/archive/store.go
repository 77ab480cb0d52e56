package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store is the replicated archival store: every AIP is written to each of N
// replica volumes (distinct directories, ideally distinct devices). Writes
// use the storage WAL's torn-write discipline — temp file + fsync + rename +
// directory fsync — and Put verifies every replica by reading it back
// (write-one-verify-all), so an acknowledged Put means N independent,
// fixity-checked copies exist.
//
// Volume layout:
//
//	<volume>/objects/<id>.aip      active replicas
//	<volume>/quarantine/<id>.aip   unrecoverable replicas, kept for forensics
type Store struct {
	volumes []string

	// mu serializes mutations (Put, repair, quarantine); reads are safe
	// against concurrent renames because rename is atomic.
	mu sync.Mutex

	now func() time.Time

	// putFail, when set (tests only), is invoked after each replica write and
	// aborts the Put when it errors — simulating a crash between replica
	// writes.
	putFail func(replica int) error
}

// ErrNotFound is returned when no volume holds a readable replica.
var ErrNotFound = errors.New("archive: object not found")

// ErrNoHealthyReplica is returned when replicas exist but none verifies.
var ErrNoHealthyReplica = errors.New("archive: no healthy replica")

const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	aipExt        = ".aip"
)

// OpenStore opens (creating if needed) a store over the given replica
// volumes. At least two volumes are required for self-repair to mean
// anything; one is allowed for detection-only deployments.
func OpenStore(volumes []string) (*Store, error) {
	if len(volumes) == 0 {
		return nil, fmt.Errorf("archive: no replica volumes")
	}
	seen := map[string]bool{}
	for _, v := range volumes {
		abs := filepath.Clean(v)
		if seen[abs] {
			return nil, fmt.Errorf("archive: duplicate volume %q", v)
		}
		seen[abs] = true
		for _, sub := range []string{objectsDir, quarantineDir} {
			if err := os.MkdirAll(filepath.Join(v, sub), 0o755); err != nil {
				return nil, fmt.Errorf("archive: create volume: %w", err)
			}
		}
	}
	return &Store{volumes: append([]string(nil), volumes...), now: time.Now}, nil
}

func replicaPath(volume, id string) string {
	return filepath.Join(volume, objectsDir, id+aipExt)
}

func quarantinePath(volume, id string) string {
	return filepath.Join(volume, quarantineDir, id+aipExt)
}

// atomicWriteFile writes blob next to path and renames it into place, with
// file and directory fsyncs, so a crash leaves either the old state or the
// complete new file — never a torn replica.
func atomicWriteFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("archive: temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(blob); err != nil {
		cleanup()
		return fmt.Errorf("archive: write replica: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("archive: sync replica: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("archive: close replica: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("archive: rename replica: %w", err)
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("archive: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("archive: sync dir: %w", err)
	}
	return nil
}

// Put archives one object across every volume and verifies all replicas.
// Put is idempotent by content address: re-archiving identical bytes repairs
// any missing or damaged replicas and keeps the first manifest.
func (s *Store) Put(payload []byte, meta Meta) (Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := NewManifest(payload, meta, s.now())
	// Keep the original manifest (and CreatedAt) if any healthy replica of
	// this content already exists, so re-puts stay byte-identical.
	if prev, _, err := s.read(m.ID); err == nil {
		m = prev
	}
	blob, err := encodeAIP(m, payload)
	if err != nil {
		return Manifest{}, err
	}
	for i, vol := range s.volumes {
		path := replicaPath(vol, m.ID)
		if st, err := readReplica(path); err == nil && st.SHA256 == m.SHA256 {
			// Healthy identical replica already in place.
		} else if err := atomicWriteFile(path, blob); err != nil {
			return Manifest{}, err
		}
		if s.putFail != nil {
			if err := s.putFail(i); err != nil {
				return Manifest{}, err
			}
		}
	}
	// Verify-all: an acknowledged Put means every replica reads back intact.
	for _, vol := range s.volumes {
		if _, err := readReplica(replicaPath(vol, m.ID)); err != nil {
			return Manifest{}, fmt.Errorf("archive: post-write verify on %s: %w", vol, err)
		}
	}
	return m, nil
}

// readReplica fully reads and fixity-checks one replica file.
func readReplica(path string) (Manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	m, _, err := decodeAIP(blob)
	return m, err
}

// Get returns the manifest and payload from the first healthy replica,
// falling back across volumes on damage. ErrNotFound means no volume has a
// replica file; ErrNoHealthyReplica means replicas exist but all fail fixity.
func (s *Store) Get(id string) (Manifest, []byte, error) {
	return s.read(id)
}

// read is the lock-free replica fallback read (atomic renames make replica
// files safe to read concurrently with mutations).
func (s *Store) read(id string) (Manifest, []byte, error) {
	found := false
	for _, vol := range s.volumes {
		blob, err := os.ReadFile(replicaPath(vol, id))
		if err != nil {
			continue
		}
		found = true
		m, payload, err := decodeAIP(blob)
		if err != nil || m.ID != id {
			continue
		}
		return m, payload, nil
	}
	if found {
		return Manifest{}, nil, fmt.Errorf("%w: %s", ErrNoHealthyReplica, id)
	}
	return Manifest{}, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
}

// ReplicaState classifies one replica of one object on one volume.
type ReplicaState string

// Replica states.
const (
	ReplicaHealthy ReplicaState = "healthy"
	ReplicaCorrupt ReplicaState = "corrupt"
	ReplicaMissing ReplicaState = "missing"
)

// ReplicaStatus is the scrub/fixity view of one replica.
type ReplicaStatus struct {
	Volume string
	State  ReplicaState
	Detail string // error text for corrupt replicas
}

// ObjectStatus is the fixity view of one object across all volumes.
type ObjectStatus struct {
	ID          string
	Manifest    Manifest // from the first healthy replica (zero if none)
	Replicas    []ReplicaStatus
	Quarantined bool // a quarantined copy exists on some volume
}

// Healthy counts replicas currently verifying.
func (o ObjectStatus) Healthy() int {
	n := 0
	for _, r := range o.Replicas {
		if r.State == ReplicaHealthy {
			n++
		}
	}
	return n
}

// Damaged reports whether any replica is corrupt or missing.
func (o ObjectStatus) Damaged() bool { return o.Healthy() < len(o.Replicas) }

// Stat re-hashes every replica of one object and reports per-volume states.
func (s *Store) Stat(id string) ObjectStatus {
	st := ObjectStatus{ID: id}
	for _, vol := range s.volumes {
		m, err := readReplica(replicaPath(vol, id))
		switch {
		case err == nil && m.ID == id:
			if st.Manifest.ID == "" {
				st.Manifest = m
			}
			st.Replicas = append(st.Replicas, ReplicaStatus{Volume: vol, State: ReplicaHealthy})
		case err != nil && os.IsNotExist(err):
			st.Replicas = append(st.Replicas, ReplicaStatus{Volume: vol, State: ReplicaMissing})
		default:
			detail := "manifest names different object"
			if err != nil {
				detail = err.Error()
			}
			st.Replicas = append(st.Replicas, ReplicaStatus{Volume: vol, State: ReplicaCorrupt, Detail: detail})
		}
		if _, err := os.Stat(quarantinePath(vol, id)); err == nil {
			st.Quarantined = true
		}
	}
	return st
}

// List returns the sorted union of object IDs with at least one active
// replica on any volume.
func (s *Store) List() ([]string, error) {
	return s.listDir(objectsDir)
}

// ListQuarantined returns the sorted IDs with a quarantined copy somewhere.
func (s *Store) ListQuarantined() ([]string, error) {
	return s.listDir(quarantineDir)
}

func (s *Store) listDir(sub string) ([]string, error) {
	set := map[string]bool{}
	for _, vol := range s.volumes {
		entries, err := os.ReadDir(filepath.Join(vol, sub))
		if err != nil {
			return nil, fmt.Errorf("archive: list %s: %w", vol, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, aipExt) {
				continue
			}
			set[strings.TrimSuffix(name, aipExt)] = true
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// repair rewrites the damaged replicas of id from the given healthy replica
// image and verifies them. Returns the volumes repaired.
func (s *Store) repair(id string, blob []byte, status ObjectStatus) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var repaired []string
	for _, r := range status.Replicas {
		if r.State == ReplicaHealthy {
			continue
		}
		path := replicaPath(r.Volume, id)
		if err := atomicWriteFile(path, blob); err != nil {
			return repaired, err
		}
		if _, err := readReplica(path); err != nil {
			return repaired, fmt.Errorf("archive: repair verify on %s: %w", r.Volume, err)
		}
		repaired = append(repaired, r.Volume)
	}
	return repaired, nil
}

// quarantine moves every surviving replica of an unrecoverable object into
// its volume's quarantine directory (kept for forensics / partial recovery)
// so the damaged bytes can no longer be served as the object.
func (s *Store) quarantine(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, vol := range s.volumes {
		src := replicaPath(vol, id)
		if _, err := os.Stat(src); err != nil {
			continue
		}
		if err := os.Rename(src, quarantinePath(vol, id)); err != nil {
			return fmt.Errorf("archive: quarantine on %s: %w", vol, err)
		}
		if err := syncDir(filepath.Dir(src)); err != nil {
			return err
		}
	}
	return nil
}
