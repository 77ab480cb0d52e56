package workflow

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Accessors only the tests read.

// HistoryListenerFunc adapts a function to HistoryListener.
type HistoryListenerFunc func(HistoryEvent)

// OnHistoryEvent implements HistoryListener.
func (f HistoryListenerFunc) OnHistoryEvent(ev HistoryEvent) { f(ev) }

// Names returns the registered service names (unordered).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	return out
}

// Depth counts ready (not yet dequeued) tasks.
func (q *MemoryQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ready)
}

// Latest loads the newest version of id.
func (r *Repository) Latest(id string) (*Definition, error) {
	v, err := r.LatestVersion(id)
	if err != nil {
		return nil, err
	}
	return r.Get(id, v)
}

// Get loads one exact version.
func (r *Repository) Get(id string, version int) (*Definition, error) {
	row, err := r.db.Table(wfTable).Get(storage.S(wfKey(id, version)))
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return nil, fmt.Errorf("%w: %s v%d", ErrWorkflowNotFound, id, version)
		}
		return nil, err
	}
	return UnmarshalXML(row.Get(wfSchema, "xml").Raw())
}

// Len returns the list length, or 1 for a scalar.
func (d Data) Len() int {
	if d.isList {
		return len(d.list)
	}
	return 1
}
