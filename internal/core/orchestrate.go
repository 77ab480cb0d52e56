package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/taxonomy"
)

// DefaultLeaseTTL is the run-lease time-to-live when RunOptions.LeaseTTL is
// zero: long enough that a healthy orchestrator (renewing every TTL/3) never
// loses a lease to scheduling jitter, short enough that a standby takes over
// a dead one promptly.
const DefaultLeaseTTL = 2 * time.Second

// orchestration is the live ownership state of one fenced run: the lease this
// process holds on the run ID and the heartbeat goroutine renewing it. It
// exists only while RunOptions.Orchestrator names this process; unowned runs
// never allocate one.
type orchestration struct {
	s   *System
	ttl time.Duration

	mu    sync.Mutex
	lease cluster.Lease
	lost  error // first heartbeat failure; the run context is cancelled with it

	cancel   context.CancelFunc
	stop     chan struct{}
	stopOnce sync.Once
	hb       sync.WaitGroup
}

// claimRun acquires the lease on runID for opts.Orchestrator and installs the
// lease token as the run's history fence, in that order: after this returns,
// any previous holder's history appends are structurally rejected
// (storage.ErrStaleFence) — they carry a smaller token.
func (s *System) claimRun(runID string, opts RunOptions) (*orchestration, error) {
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	lease, err := s.Leases.Acquire(runID, opts.Orchestrator, ttl)
	if err != nil {
		return nil, err
	}
	// The history fence lives in the repository owning the run's rows (the
	// owning shard when sharded); the lease lives in the lease/meta database.
	// The fence carries the lease's token number, so the claim that steals the
	// lease is the claim that stales the old holder's history writer.
	if err := s.Provenance.AdvanceRunFence(runID, lease.Token); err != nil {
		_ = s.Leases.Release(lease)
		return nil, fmt.Errorf("core: fencing run %s at token %d: %w", runID, lease.Token, err)
	}
	return &orchestration{s: s, ttl: ttl, lease: lease, stop: make(chan struct{})}, nil
}

// token returns the fencing token of the held lease.
func (o *orchestration) token() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lease.Token
}

// watch starts the heartbeat (renew every TTL/3) and returns a context that
// is cancelled the moment a renewal discovers the lease stolen — the run
// stops scheduling work as soon as it stops owning the run, not merely when
// the next fenced write bounces.
func (o *orchestration) watch(ctx context.Context) context.Context {
	ctx, cancel := context.WithCancel(ctx)
	o.cancel = cancel
	interval := o.ttl / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	o.hb.Add(1)
	go func() {
		defer o.hb.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-t.C:
				o.mu.Lock()
				cur := o.lease
				o.mu.Unlock()
				renewed, err := o.s.Leases.Renew(cur, o.ttl)
				if err != nil {
					o.mu.Lock()
					o.lost = err
					o.mu.Unlock()
					cancel()
					return
				}
				o.mu.Lock()
				o.lease = renewed
				o.mu.Unlock()
			}
		}
	}()
	return ctx
}

// lostErr reports the heartbeat failure that killed the run, if any.
func (o *orchestration) lostErr() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lost
}

// halt stops the heartbeat without touching the lease. Idempotent; every
// return path of an orchestrated run goes through it (deferred from the claim,
// and via finish). On its own it is the crash path: the lease is deliberately
// NOT released, so it ages out exactly as it would had the process died — a
// standby must wait out (or force) the expiry and steal with a token bump.
func (o *orchestration) halt() {
	o.stopOnce.Do(func() { close(o.stop) })
	o.hb.Wait()
	if o.cancel != nil {
		o.cancel()
	}
}

// finish is the clean-completion path: heartbeats stop and the lease is
// released (expired in place, token preserved). Releasing a stolen lease is
// a no-op — the thief owns it.
func (o *orchestration) finish() {
	o.halt()
	o.mu.Lock()
	l := o.lease
	o.mu.Unlock()
	_ = o.s.Leases.Release(l)
}

// FailoverDetection is the standby orchestrator's takeover path: wait (up to
// wait) for the current holder's lease on runID to expire, steal it — which
// bumps the fencing token, structurally cutting the old holder off — and
// resume the run to completion under its original ID via pure history
// replay. opts.Orchestrator must name the standby.
//
// The produced provenance graph is byte-identical to an uninterrupted run's:
// failover IS resume, just with the lease contended.
func (s *System) FailoverDetection(ctx context.Context, resolver taxonomy.Resolver, runID string, wait time.Duration, opts RunOptions) (*DetectionOutcome, error) {
	if opts.Orchestrator == "" {
		return nil, errors.New("core: FailoverDetection needs RunOptions.Orchestrator")
	}
	poll := opts.LeaseTTL / 4
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	deadline := time.Now().Add(wait)
	for {
		out, err := s.ResumeDetection(ctx, resolver, runID, opts)
		if err != nil && errors.Is(err, cluster.ErrLeaseHeld) && time.Now().Before(deadline) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(poll):
			}
			continue
		}
		return out, err
	}
}
