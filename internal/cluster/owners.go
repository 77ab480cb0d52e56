// Package cluster runs detections off the admission queue: the scheduler
// members that drain it, and the in-memory set of run IDs this process is
// executing. A storage directory has one opener at a time (storage.Open locks
// it), so every executor of a directory's runs lives in the process that holds
// it, and ownership needs no durable lease: a crashed run's owner is either
// this process, which released the run when its execution returned, or a dead
// one, whose lock went with it.
package cluster

import (
	"errors"
	"fmt"
	"sync"
)

// ErrRunOwned is returned by Owners.Claim when the run is already executing
// in this process: the caller must not read or write any of its state.
var ErrRunOwned = errors.New("cluster: run already owned")

// Owners is the set of run IDs executing in this process, each with the name
// of its owner. The zero value is an empty set, safe for concurrent use.
type Owners struct {
	mu   sync.Mutex
	runs map[string]string
}

// Claim adds runID to the set under owner. It fails with ErrRunOwned when
// the run is already in the set; of any number of concurrent claimers of one
// ID exactly one wins.
func (o *Owners) Claim(runID, owner string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if holder, held := o.runs[runID]; held {
		return fmt.Errorf("%w: %s executes under %q", ErrRunOwned, runID, holder)
	}
	if o.runs == nil {
		o.runs = map[string]string{}
	}
	o.runs[runID] = owner
	return nil
}

// Release removes runID from the set.
func (o *Owners) Release(runID string) {
	o.mu.Lock()
	delete(o.runs, runID)
	o.mu.Unlock()
}

// Held reports whether runID is executing in this process right now.
func (o *Owners) Held(runID string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, held := o.runs[runID]
	return held
}
