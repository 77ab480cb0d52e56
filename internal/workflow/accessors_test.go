package workflow

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

// InFlight counts leased tasks.
func (q *MemoryQueue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.leased)
}

// Latest loads the newest version of id.
func (r *Repository) Latest(id string) (*Definition, error) {
	v, err := r.LatestVersion(id)
	if err != nil {
		return nil, err
	}
	return r.Get(id, v)
}
