package workflow

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/storage"
)

// Repository is the Workflow Repository of the architecture (Fig. 1): a
// versioned store of workflow definitions backed by the embedded database.
// Publishing never overwrites — each publish creates a new version, so the
// provenance of any past run can always be traced back to the exact
// specification that produced it.
type Repository struct {
	db *storage.DB
	// pub serializes Publish's read-latest-then-insert so concurrent
	// publishers (parallel detection runs) never mint the same version.
	pub sync.Mutex
}

const wfTable = "workflows"

var wfSchema = storage.MustSchema(wfTable,
	storage.Column{Name: "key", Kind: storage.KindString}, // id@version
	storage.Column{Name: "id", Kind: storage.KindString},
	storage.Column{Name: "name", Kind: storage.KindString},
	storage.Column{Name: "version", Kind: storage.KindInt},
	storage.Column{Name: "published_at", Kind: storage.KindTime},
	storage.Column{Name: "xml", Kind: storage.KindBytes},
)

// ErrWorkflowNotFound is returned for unknown workflow IDs or versions.
var ErrWorkflowNotFound = errors.New("workflow: not found in repository")

// NewRepository opens (creating if needed) the workflow repository inside db.
// The table has no id index: a version is one point read by its "id@version"
// key, and LatestVersion probes keys. A table an earlier version created
// keeps the id index it made; storage maintains it and nothing reads it.
func NewRepository(db *storage.DB) (*Repository, error) {
	if db.Table(wfTable) == nil {
		if err := db.CreateTable(wfSchema); err != nil {
			return nil, err
		}
	}
	return &Repository{db: db}, nil
}

func wfKey(id string, version int) string { return fmt.Sprintf("%s@%06d", id, version) }

// Publish validates def and stores it as the next version of def.ID,
// returning the assigned version number. def itself is not mutated.
func (r *Repository) Publish(def *Definition) (int, error) {
	if def.ID == "" {
		return 0, fmt.Errorf("workflow: cannot publish a definition without an ID")
	}
	if err := Validate(def); err != nil {
		return 0, err
	}
	r.pub.Lock()
	defer r.pub.Unlock()
	latest, err := r.LatestVersion(def.ID)
	if err != nil && !errors.Is(err, ErrWorkflowNotFound) {
		return 0, err
	}
	version := latest + 1
	cp := def.Clone()
	cp.Version = version
	blob, err := MarshalXML(cp)
	if err != nil {
		return 0, err
	}
	row := storage.Row{
		storage.S(wfKey(def.ID, version)),
		storage.S(def.ID),
		storage.S(def.Name),
		storage.I(int64(version)),
		storage.T(time.Now()),
		storage.Bytes(blob),
	}
	if err := r.db.Insert(wfTable, row); err != nil {
		return 0, err
	}
	return version, nil
}

// LatestVersion returns the highest published version of id in O(log N)
// point probes, whatever the number N of versions stored.
func (r *Repository) LatestVersion(id string) (int, error) {
	t := r.db.Table(wfTable)
	v := latestDense(func(v int) bool { return t.Has(storage.S(wfKey(id, v))) })
	if v == 0 {
		return 0, fmt.Errorf("%w: %s", ErrWorkflowNotFound, id)
	}
	return v, nil
}

// latestDense finds the highest version in a set that Publish keeps dense
// from 1 — has(v) holds exactly for 1 ≤ v ≤ N — and returns N (0 for an empty
// set): exponential probes bracket N, then a binary search pins it.
func latestDense(has func(v int) bool) int {
	lo, hi := 0, 1 // has(lo) or lo == 0; !has(hi) once the doubling stops
	for has(hi) {
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; has(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
