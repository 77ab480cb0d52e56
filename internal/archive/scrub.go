package archive

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ScrubReport is the outcome of one full scrub pass over the volumes.
type ScrubReport struct {
	StartedAt  time.Time
	FinishedAt time.Time

	Objects         int // objects examined
	ReplicasChecked int // replica files re-hashed (incl. missing slots)
	CorruptFound    int // replicas failing fixity
	MissingFound    int // replica slots with no file
	Repaired        int // objects fully restored from a healthy replica
	Unrecoverable   int // objects with zero healthy replicas this pass
	BytesScanned    int64

	// Damaged lists the objects that had at least one damaged replica, with
	// their post-repair status; the audit run is built from this.
	Damaged []ScrubFinding
}

// ScrubFinding is one damaged object: what was wrong and what was done.
type ScrubFinding struct {
	Status          ObjectStatus // state as found (pre-repair)
	RepairedVolumes []string     // volumes rewritten from a healthy replica
	Quarantined     bool         // object had no healthy replica and was quarantined
	RepairErr       string       // non-empty when a repair attempt itself failed
}

// Clean reports whether the pass found no damage at all.
func (r ScrubReport) Clean() bool { return len(r.Damaged) == 0 }

// Auditor records scrub outcomes somewhere durable — the provenance
// repository, in production (ProvenanceAuditor).
type Auditor interface {
	RecordAudit(ScrubReport) error
}

// Scrubber walks the store's volumes each time a caller runs ScrubOnce,
// re-hashes every replica, repairs damage from healthy copies, quarantines
// unrecoverable objects, and emits cumulative counters (Counters) plus
// per-pass audit runs through the Auditor. Concurrent ScrubOnce calls run
// one at a time.
type Scrubber struct {
	Store *Store
	// RatePerSec caps how many objects are examined per second (0 =
	// unlimited); scrubbing is a background janitor and must not starve
	// foreground I/O.
	RatePerSec float64
	// Auditor, when set, receives every pass that found damage.
	Auditor Auditor

	// mu serializes whole passes (one scrub at a time).
	mu sync.Mutex

	passes        atomic.Int64
	objects       atomic.Int64
	replicas      atomic.Int64
	corrupt       atomic.Int64
	missing       atomic.Int64
	repaired      atomic.Int64
	unrecoverable atomic.Int64
	bytesScanned  atomic.Int64
	lastPassUS    atomic.Int64

	passHist telemetry.Histogram // whole-pass latency distribution
}

// ScrubOnce runs one full pass: classify every replica of every object,
// repair what has a healthy source, quarantine what does not.
func (s *Scrubber) ScrubOnce(ctx context.Context) (ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, sp := telemetry.StartSpan(ctx, "scrub-pass", "archive-scrubber")
	defer sp.Finish()
	rep := ScrubReport{StartedAt: time.Now()}
	ids, err := s.Store.List()
	if err != nil {
		sp.SetAttr("error", err.Error())
		return rep, err
	}
	var interval time.Duration
	if s.RatePerSec > 0 {
		interval = time.Duration(float64(time.Second) / s.RatePerSec)
	}
	next := time.Now()
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return rep, ctx.Err()
				}
			}
			next = next.Add(interval)
		}
		s.scrubObject(id, &rep)
	}
	rep.FinishedAt = time.Now()

	s.passes.Add(1)
	s.objects.Add(int64(rep.Objects))
	s.replicas.Add(int64(rep.ReplicasChecked))
	s.corrupt.Add(int64(rep.CorruptFound))
	s.missing.Add(int64(rep.MissingFound))
	s.repaired.Add(int64(rep.Repaired))
	s.unrecoverable.Add(int64(rep.Unrecoverable))
	s.bytesScanned.Add(rep.BytesScanned)
	s.lastPassUS.Store(rep.FinishedAt.Sub(rep.StartedAt).Microseconds())
	s.passHist.Observe(rep.FinishedAt.Sub(rep.StartedAt))
	if sp != nil {
		sp.SetAttr("objects", strconv.Itoa(rep.Objects))
		sp.SetAttr("replicas_checked", strconv.Itoa(rep.ReplicasChecked))
		sp.SetAttr("repaired", strconv.Itoa(rep.Repaired))
		sp.SetAttr("unrecoverable", strconv.Itoa(rep.Unrecoverable))
	}

	if s.Auditor != nil && !rep.Clean() {
		if err := s.Auditor.RecordAudit(rep); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// scrubObject classifies one object and applies repair or quarantine.
func (s *Scrubber) scrubObject(id string, rep *ScrubReport) {
	status := s.Store.Stat(id)
	rep.Objects++
	rep.ReplicasChecked += len(status.Replicas)
	if m := status.Manifest; m.ID != "" {
		rep.BytesScanned += m.Size * int64(status.Healthy())
	}
	for _, r := range status.Replicas {
		switch r.State {
		case ReplicaCorrupt:
			rep.CorruptFound++
		case ReplicaMissing:
			rep.MissingFound++
		}
	}
	if !status.Damaged() {
		return
	}
	finding := ScrubFinding{Status: status}
	if status.Healthy() > 0 {
		// Self-repair: rebuild damaged replicas from a healthy one.
		m, payload, err := s.Store.Get(id)
		if err == nil {
			blob, encErr := encodeAIP(m, payload)
			if encErr != nil {
				err = encErr
			} else {
				finding.RepairedVolumes, err = s.Store.repair(id, blob, status)
			}
		}
		if err != nil {
			finding.RepairErr = err.Error()
		} else {
			rep.Repaired++
		}
	} else {
		// Unrecoverable: no volume can vouch for the bytes. Quarantine the
		// survivors so damage is never served as the object.
		rep.Unrecoverable++
		finding.Quarantined = true
		if err := s.Store.quarantine(id); err != nil {
			finding.RepairErr = err.Error()
		}
	}
	rep.Damaged = append(rep.Damaged, finding)
}

// Counters renders the scrubber's cumulative telemetry as named readings for
// obs.FromRuntimeMetrics, mirroring the engine and provenance-writer
// counters.
func (s *Scrubber) Counters() map[string]float64 {
	c := map[string]float64{
		"archive.scrub.passes":           float64(s.passes.Load()),
		"archive.scrub.objects":          float64(s.objects.Load()),
		"archive.scrub.replicas_checked": float64(s.replicas.Load()),
		"archive.scrub.corrupt_found":    float64(s.corrupt.Load()),
		"archive.scrub.missing_found":    float64(s.missing.Load()),
		"archive.scrub.repaired":         float64(s.repaired.Load()),
		"archive.scrub.unrecoverable":    float64(s.unrecoverable.Load()),
		"archive.scrub.bytes_scanned":    float64(s.bytesScanned.Load()),
		"archive.scrub.last_pass_us":     float64(s.lastPassUS.Load()),
	}
	return telemetry.MergeCounters(c, s.passHist.Snapshot().Counters("archive.scrub.pass"))
}
