package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/archive"
	"repro/internal/audio"
	"repro/internal/fnjv"
	"repro/internal/opm"
)

// testArchiveStore opens a store over n fresh volumes, returned beside it.
func testArchiveStore(t *testing.T, n int) (*archive.Store, []string) {
	t.Helper()
	root := t.TempDir()
	vols := make([]string, n)
	for i := range vols {
		vols[i] = filepath.Join(root, fmt.Sprintf("vol%d", i))
	}
	store, err := archive.OpenStore(vols)
	if err != nil {
		t.Fatal(err)
	}
	return store, vols
}

func TestPreservationManagerLevelGatesAudio(t *testing.T) {
	sys, _, col := testSystem(t, 50, 20)
	store, _ := testArchiveStore(t, 2)

	pm, err := sys.NewPreservationManager(store, LevelDocumentation)
	if err != nil {
		t.Fatal(err)
	}
	rec := col.Records[0]
	manifests, err := pm.Archive(rec, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 1 || manifests[0].MediaType != MediaRecordJSON {
		t.Fatalf("level 1 archived %+v, want metadata JSON only", manifests)
	}
	if _, err := pm.ArchiveClip(rec, audio.Clip{SampleRate: 8000, Samples: make([]float64, 80)}, ""); err == nil {
		t.Fatal("level 1 accepted an audio package")
	}

	pm2, err := sys.NewPreservationManager(store, LevelSimplifiedFormat)
	if err != nil {
		t.Fatal(err)
	}
	manifests, err = pm2.Archive(rec, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 2 || manifests[1].MediaType != MediaClipWAV {
		t.Fatalf("level 2 archived %+v, want metadata + WAV", manifests)
	}

	// The archived metadata round-trips to the original record.
	m, blob, err := store.Get(manifests[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.SourceID != rec.ID {
		t.Fatalf("manifest source %q, want %q", m.SourceID, rec.ID)
	}
	var got fnjv.Record
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != rec.ID || got.Species != rec.Species {
		t.Fatal("archived record JSON does not match the record")
	}
	// The archived WAV decodes.
	_, wav, err := store.Get(manifests[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	clip, err := audio.ReadWAV(bytes.NewReader(wav))
	if err != nil {
		t.Fatal(err)
	}
	if clip.SampleRate != 8000 || len(clip.Samples) == 0 {
		t.Fatalf("archived clip: rate=%d samples=%d", clip.SampleRate, len(clip.Samples))
	}

	if _, err := sys.NewPreservationManager(store, PreservationLevel(9)); err == nil {
		t.Fatal("invalid level accepted")
	}
}

// TestArchiveDetectionRunEndToEnd runs the paper's detection workflow, then
// archives the run's OPM graph and the outdated records, corrupts a replica,
// and verifies VerifyArchive repairs it and records the audit run next to
// the detection run in the same provenance repository.
func TestArchiveDetectionRunEndToEnd(t *testing.T) {
	sys, taxa, col := testSystem(t, 200, 50)
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store, vols := testArchiveStore(t, 3)
	pm, err := sys.NewPreservationManager(store, LevelSimplifiedFormat)
	if err != nil {
		t.Fatal(err)
	}

	gm, err := pm.ArchiveRunGraph(outcome.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if gm.MediaType != MediaOPMXML || gm.RunID != outcome.RunID {
		t.Fatalf("graph manifest = %+v", gm)
	}
	_, blob, err := store.Get(gm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opm.UnmarshalXML(blob); err != nil {
		t.Fatalf("archived OPM graph does not parse: %v", err)
	}

	archived := 0
	for _, rec := range col.Records[:10] {
		if _, err := pm.Archive(rec, outcome.RunID); err != nil {
			t.Fatal(err)
		}
		archived++
	}
	if archived != 10 {
		t.Fatal("short archive loop")
	}

	if err := archive.CorruptReplica(vols[1], gm.ID, -2); err != nil {
		t.Fatal(err)
	}
	rep, err := pm.VerifyArchive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptFound != 1 || rep.Repaired != 1 {
		t.Fatalf("verify pass: %+v", rep)
	}
	if st := store.Stat(gm.ID); st.Healthy() != 3 {
		t.Fatalf("graph package not repaired: %+v", st)
	}

	// The audit run is in the same repository as the detection run, and the
	// repaired package's lineage points at it.
	audits, err := sys.Provenance.Runs(archive.AuditWorkflowID)
	if err != nil {
		t.Fatal(err)
	}
	if len(audits) != 1 {
		t.Fatalf("audit runs = %d, want 1", len(audits))
	}
	using, err := sys.Provenance.RunsUsingArtifact(gm.ArtifactID())
	if err != nil {
		t.Fatal(err)
	}
	if len(using) != 1 || using[0] != audits[0].RunID {
		t.Fatalf("lineage of repaired package = %v, want the audit run", using)
	}
}
