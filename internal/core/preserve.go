package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/archive"
	"repro/internal/audio"
	"repro/internal/fnjv"
	"repro/internal/obs"
	"repro/internal/opm"
)

// PreservationManager is the Table I execution arm: it decides, from the
// configured PreservationLevel, what gets packaged into the archival store
// for a record, and it re-verifies what was packaged each time a caller runs
// VerifyArchive (one ScrubOnce pass; nothing scrubs on a timer). Level 1
// archives the curated documentation (record metadata JSON and exported
// provenance graphs); level 2 and above additionally archive the data in a
// simplified format (the PCM WAV rendition of the recording).
type PreservationManager struct {
	System *System
	// Store is the replicated AIP store the packages land in.
	Store *archive.Store
	// Scrubber audits the store; its Auditor streams archive-audit runs into
	// the system's provenance repository.
	Scrubber *archive.Scrubber
	// Level selects what Archive packages (Table I).
	Level PreservationLevel
}

// NewPreservationManager wires an archival store to the system at the given
// preservation level. The scrubber it attaches records audit runs in the
// system's provenance repository, so repairs are lineage-queryable next to
// the detection runs.
func (s *System) NewPreservationManager(store *archive.Store, level PreservationLevel) (*PreservationManager, error) {
	if !level.Valid() {
		return nil, fmt.Errorf("core: invalid preservation level %d", int(level))
	}
	return &PreservationManager{
		System: s,
		Store:  store,
		Scrubber: &archive.Scrubber{
			Store:   store,
			Auditor: &archive.ProvenanceAuditor{Repo: s.Provenance, Agent: "archive-scrubber"},
		},
		Level: level,
	}, nil
}

// MediaTypes of the packages the manager produces.
const (
	MediaRecordJSON = "application/json"
	MediaClipWAV    = "audio/wav"
	MediaOPMXML     = "application/xml"
)

// ArchiveRecord packages one record's metadata JSON (level ≥ 1). runID, when
// non-empty, links the package to the provenance run that assessed it.
func (pm *PreservationManager) ArchiveRecord(rec *fnjv.Record, runID string) (archive.Manifest, error) {
	blob, err := json.Marshal(rec)
	if err != nil {
		return archive.Manifest{}, fmt.Errorf("core: encode record: %w", err)
	}
	return pm.Store.Put(blob, archive.Meta{
		MediaType: MediaRecordJSON,
		SourceID:  rec.ID,
		RunID:     runID,
		Label:     "record metadata: " + rec.Species,
	})
}

// ArchiveClip packages one recording as PCM WAV — the simplified data format
// of level 2. Requires Level ≥ LevelSimplifiedFormat.
func (pm *PreservationManager) ArchiveClip(rec *fnjv.Record, clip audio.Clip, runID string) (archive.Manifest, error) {
	if pm.Level < LevelSimplifiedFormat {
		return archive.Manifest{}, fmt.Errorf("core: archiving audio requires %s, manager is at %s",
			LevelSimplifiedFormat, pm.Level)
	}
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, clip); err != nil {
		return archive.Manifest{}, fmt.Errorf("core: encode wav: %w", err)
	}
	return pm.Store.Put(buf.Bytes(), archive.Meta{
		MediaType: MediaClipWAV,
		SourceID:  rec.ID,
		RunID:     runID,
		Label:     "recording: " + rec.Species,
	})
}

// ArchiveRunGraph packages the exported OPM graph of a provenance run —
// preservation packages stay linked to the provenance that explains them.
func (pm *PreservationManager) ArchiveRunGraph(runID string) (archive.Manifest, error) {
	g, err := pm.System.Provenance.Graph(runID)
	if err != nil {
		return archive.Manifest{}, err
	}
	return pm.Store.Put(opm.MarshalXML(g), archive.Meta{
		MediaType: MediaOPMXML,
		RunID:     runID,
		Label:     "provenance graph: " + runID,
	})
}

// Archive packages everything the configured level preserves for one record:
// the metadata JSON always, plus — at LevelSimplifiedFormat and above — a
// WAV rendition of the recording, synthesized from the species voice with a
// per-record seed (the stand-in for pulling the digitized tape).
func (pm *PreservationManager) Archive(rec *fnjv.Record, runID string) ([]archive.Manifest, error) {
	var out []archive.Manifest
	m, err := pm.ArchiveRecord(rec, runID)
	if err != nil {
		return out, err
	}
	out = append(out, m)
	if pm.Level >= LevelSimplifiedFormat {
		clip := audio.Synthesize(audio.VoiceOf(rec.Species), audio.SynthesisParams{
			SampleRate: 8000,
			Duration:   0.25,
			NoiseLevel: 0.02,
			Seed:       recordSeed(rec.ID),
		})
		cm, err := pm.ArchiveClip(rec, clip, runID)
		if err != nil {
			return out, err
		}
		out = append(out, cm)
	}
	return out, nil
}

func recordSeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}

// VerifyArchive runs one fixity audit pass over every replica volume:
// re-hash, classify, repair, quarantine — and, when damage was found, record
// the archive-audit run in the provenance repository.
func (pm *PreservationManager) VerifyArchive(ctx context.Context) (archive.ScrubReport, error) {
	return pm.Scrubber.ScrubOnce(ctx)
}

// ScrubObservation snapshots the scrub counters as a runtime self-monitoring
// observation, stored and queried like any measurement.
func (pm *PreservationManager) ScrubObservation(at time.Time) obs.Observation {
	return obs.FromRuntimeMetrics("archive-scrubber", at, pm.Scrubber.Counters())
}
