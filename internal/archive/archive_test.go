package archive

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testVolumes(t *testing.T, n int) []string {
	t.Helper()
	root := t.TempDir()
	vols := make([]string, n)
	for i := range vols {
		vols[i] = filepath.Join(root, fmt.Sprintf("vol%d", i))
	}
	return vols
}

func testStore(t *testing.T, n int) *Store {
	t.Helper()
	s, err := OpenStore(testVolumes(t, n))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAIPCodecRoundTrip(t *testing.T) {
	payload := []byte("the preserved object bytes")
	m := NewManifest(payload, Meta{
		MediaType: "application/octet-stream",
		SourceID:  "FNJV-0001",
		RunID:     "run-000001",
		Label:     "test object",
	}, time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC))
	blob, err := encodeAIP(m, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := decodeAIP(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("manifest round trip: got %+v want %+v", got, m)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload round trip mismatch")
	}
	if m.ID != m.SHA256[:32] {
		t.Fatalf("ID %q is not the digest prefix of %q", m.ID, m.SHA256)
	}
}

func TestAIPCodecRejectsDamage(t *testing.T) {
	payload := []byte("bytes that must survive")
	m := NewManifest(payload, Meta{MediaType: "text/plain"}, time.Now())
	blob, err := encodeAIP(m, payload)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"flipped magic":         func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"flipped manifest byte": func(b []byte) []byte { b[aipHeaderLen+2] ^= 0xFF; return b },
		"flipped payload byte":  func(b []byte) []byte { b[len(b)-3] ^= 0xFF; return b },
		"truncated payload":     func(b []byte) []byte { return b[:len(b)-5] },
		"truncated header":      func(b []byte) []byte { return b[:6] },
		"huge manifest length": func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0xFF, 0xFF, 0xFF, 0x7F
			return b
		},
	} {
		damaged := mutate(append([]byte(nil), blob...))
		if _, _, err := decodeAIP(damaged); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

func TestPutWritesAndVerifiesAllReplicas(t *testing.T) {
	s := testStore(t, 3)
	payload := []byte("replicated payload")
	m, err := s.Put(payload, Meta{MediaType: "text/plain", Label: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, vol := range s.Volumes() {
		got, err := readReplica(replicaPath(vol, m.ID))
		if err != nil {
			t.Fatalf("replica on %s: %v", vol, err)
		}
		if got.SHA256 != m.SHA256 {
			t.Fatalf("replica digest mismatch on %s", vol)
		}
	}
	gm, gp, err := s.Get(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gm != m || !bytes.Equal(gp, payload) {
		t.Fatal("Get did not round-trip the Put")
	}
	st := s.Stat(m.ID)
	if st.Healthy() != 3 || st.Damaged() {
		t.Fatalf("expected 3 healthy replicas, got %+v", st)
	}
}

func TestPutIsIdempotentAndKeepsFirstManifest(t *testing.T) {
	s := testStore(t, 2)
	payload := []byte("same bytes twice")
	first, err := s.Put(payload, Meta{MediaType: "text/plain", Label: "first"})
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Put(payload, Meta{MediaType: "text/plain", Label: "second"})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("re-put changed the manifest: %+v vs %+v", again, first)
	}
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != first.ID {
		t.Fatalf("List = %v, want [%s]", ids, first.ID)
	}
}

func TestGetFallsBackAcrossDamagedReplicas(t *testing.T) {
	s := testStore(t, 3)
	payload := []byte("survives two bad replicas")
	m, err := s.Put(payload, Meta{MediaType: "text/plain"})
	if err != nil {
		t.Fatal(err)
	}
	vols := s.Volumes()
	if err := CorruptReplica(vols[0], m.ID, -1); err != nil {
		t.Fatal(err)
	}
	if err := DeleteReplica(vols[1], m.ID); err != nil {
		t.Fatal(err)
	}
	gm, gp, err := s.Get(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gm.SHA256 != m.SHA256 || !bytes.Equal(gp, payload) {
		t.Fatal("fallback read returned wrong bytes")
	}
	st := s.Stat(m.ID)
	if st.Healthy() != 1 || !st.Damaged() {
		t.Fatalf("Stat = %+v, want 1 healthy of 3", st)
	}

	// Damage the last copy too: Get must refuse rather than serve bad bytes.
	if err := truncateReplica(vols[2], m.ID, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(m.ID); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("want ErrNoHealthyReplica, got %v", err)
	}
	if _, _, err := s.Get("0000000000000000deadbeef00000000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestOpenStoreRejectsBadConfigs(t *testing.T) {
	if _, err := OpenStore(nil); err == nil {
		t.Fatal("no volumes accepted")
	}
	dir := t.TempDir()
	if _, err := OpenStore([]string{dir, dir}); err == nil {
		t.Fatal("duplicate volumes accepted")
	}
}

func TestPutRepairsDamagedReplicaInPlace(t *testing.T) {
	s := testStore(t, 2)
	payload := []byte("re-put heals")
	m, err := s.Put(payload, Meta{MediaType: "text/plain"})
	if err != nil {
		t.Fatal(err)
	}
	if err := CorruptReplica(s.Volumes()[1], m.ID, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(payload, Meta{MediaType: "text/plain"}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stat(m.ID); st.Healthy() != 2 {
		t.Fatalf("re-put did not heal: %+v", st)
	}
}

func TestQuarantineMovesSurvivors(t *testing.T) {
	s := testStore(t, 2)
	m, err := s.Put([]byte("doomed"), Meta{MediaType: "text/plain"})
	if err != nil {
		t.Fatal(err)
	}
	vols := s.Volumes()
	if err := CorruptReplica(vols[0], m.ID, -1); err != nil {
		t.Fatal(err)
	}
	if err := DeleteReplica(vols[1], m.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.quarantine(m.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(replicaPath(vols[0], m.ID)); !os.IsNotExist(err) {
		t.Fatal("corrupt replica still active after quarantine")
	}
	if _, err := os.Stat(quarantinePath(vols[0], m.ID)); err != nil {
		t.Fatal("quarantined copy missing")
	}
	q, err := s.ListQuarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0] != m.ID {
		t.Fatalf("ListQuarantined = %v", q)
	}
	if st := s.Stat(m.ID); !st.Quarantined {
		t.Fatal("Stat does not surface quarantine")
	}
}

// truncateReplica cuts the object's replica on the given volume to n bytes —
// a torn write that slipped past the rename discipline (e.g. volume restored
// from a partial backup).
func truncateReplica(volume, id string, n int64) error {
	if err := os.Truncate(replicaPath(volume, id), n); err != nil {
		return fmt.Errorf("archive: truncate replica: %w", err)
	}
	return nil
}
