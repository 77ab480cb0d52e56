package cluster

import (
	"errors"
	"sort"
	"strings"
	"time"
)

// Membership: each orchestrator in the pool announces liveness by holding a
// lease on "orchestrator/<name>" in the shared lease store, renewed on the
// same TTL/3 cadence as run leases. Membership is therefore observable by
// every peer (and the API) with a plain lease scan — no separate gossip or
// registry — and a dead orchestrator's row ages out exactly like an abandoned
// run lease. The member lease token counts the orchestrator's sessions:
// every (re)join bumps it.

// OrchestratorPrefix namespaces membership resources in the lease table,
// keeping them disjoint from run leases (which are keyed by bare run ID).
const OrchestratorPrefix = "orchestrator/"

// MemberResource is the lease resource announcing the named orchestrator.
func MemberResource(name string) string { return OrchestratorPrefix + name }

// Member is one orchestrator's membership row as observed in the lease store.
type Member struct {
	// Name of the orchestrator process.
	Name string
	// Token is the membership fencing token — the orchestrator's session
	// count (bumped on every join after a death or clean leave).
	Token int64
	// Expires is when the membership lapses unless renewed.
	Expires time.Time
	// Live reports whether the row was unexpired at observation time.
	Live bool
}

// Heartbeat announces (or renews) the named orchestrator's membership for
// ttl. First call acquires the membership lease; subsequent calls renew it.
// If the previous session's row is still live under another incarnation —
// the name is genuinely held by someone else — ErrLeaseHeld propagates.
func (s *Store) Heartbeat(name string, ttl time.Duration) (Lease, error) {
	res := MemberResource(name)
	if cur, ok := s.Get(res); ok && cur.Live(time.Now()) && cur.Holder == name {
		renewed, err := s.Renew(cur, ttl)
		if err == nil {
			return renewed, nil
		}
		if !errors.Is(err, ErrLeaseLost) {
			return Lease{}, err
		}
		// Lost between Get and Renew: fall through and re-acquire.
	}
	return s.Acquire(res, name, ttl)
}

// Leave expires the orchestrator's membership row in place (clean shutdown).
// The token survives, so a rejoin is visibly a new session.
func (s *Store) Leave(name string) {
	if cur, ok := s.Get(MemberResource(name)); ok {
		_ = s.Release(cur)
	}
}

// Members lists every orchestrator that ever announced itself, sorted by
// name, with liveness evaluated at now. Callers wanting only the live pool
// filter on Member.Live.
func (s *Store) Members(now time.Time) []Member {
	var out []Member
	for _, l := range s.List() {
		if !strings.HasPrefix(l.Resource, OrchestratorPrefix) {
			continue
		}
		out = append(out, Member{
			Name:    strings.TrimPrefix(l.Resource, OrchestratorPrefix),
			Token:   l.Token,
			Expires: l.Expires,
			Live:    l.Live(now),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RunLeases lists the non-membership leases (run ownership rows), in
// resource order — the /cluster/leases view.
func (s *Store) RunLeases() []Lease {
	var out []Lease
	for _, l := range s.List() {
		if strings.HasPrefix(l.Resource, OrchestratorPrefix) {
			continue
		}
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Resource < out[j].Resource })
	return out
}
