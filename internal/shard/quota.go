package shard

import (
	"math"
	"sort"
	"sync"
	"time"
)

// QuotaOptions configures per-tenant rate limits.
type QuotaOptions struct {
	// Rate is the sustained request budget per tenant, in tokens/second
	// (default 50).
	Rate float64
	// Burst is the bucket capacity — how far a tenant can run ahead of the
	// sustained rate (default 2×Rate, minimum 1).
	Burst float64
}

// Quotas enforces a token bucket per tenant: every admitted request spends
// one token, tokens refill continuously at Rate, and a tenant that drains
// its bucket is throttled until it refills — other tenants' buckets are
// untouched. Safe for concurrent use.
type Quotas struct {
	rate  float64
	burst float64
	// now is the clock, swappable in tests.
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens    float64
	spent     float64
	requests  int64
	throttled int64
	last      time.Time
}

// NewQuotas builds a quota table with the given limits.
func NewQuotas(opts QuotaOptions) *Quotas {
	rate := opts.Rate
	if rate <= 0 {
		rate = 50
	}
	burst := opts.Burst
	if burst <= 0 {
		burst = math.Max(1, 2*rate)
	}
	return &Quotas{rate: rate, burst: burst, now: time.Now, buckets: make(map[string]*bucket)}
}

// Decision is the outcome of one admission check.
type Decision struct {
	// Allowed reports whether the request may proceed.
	Allowed bool
	// Limit is the bucket capacity (the X-RateLimit-Limit header).
	Limit int
	// Remaining is the whole tokens left after this decision.
	Remaining int
	// RetryAfter is how long a throttled tenant must wait for enough tokens;
	// zero when Allowed.
	RetryAfter time.Duration
}

// Allow spends one token from the tenant's bucket, creating a full bucket on
// first sight. The default tenant "" has a bucket like any other.
func (q *Quotas) Allow(tenant string) Decision {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b := q.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(q.burst, b.tokens+dt*q.rate)
		b.last = now
	}
	b.requests++
	d := Decision{Limit: int(q.burst)}
	if b.tokens >= 1 {
		b.tokens--
		b.spent++
		d.Allowed = true
		d.Remaining = int(b.tokens)
		return d
	}
	b.throttled++
	d.RetryAfter = time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
	if d.RetryAfter < time.Millisecond {
		d.RetryAfter = time.Millisecond
	}
	return d
}

// Counters renders per-tenant admission gauges for the metrics bridge:
// requests seen, requests throttled, and the tokens spent.
func (q *Quotas) Counters() map[string]float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]float64, 3*len(q.buckets)+2)
	out["rate"] = q.rate
	out["burst"] = q.burst
	tenants := make([]string, 0, len(q.buckets))
	for t := range q.buckets {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		name := t
		if name == "" {
			name = "default"
		}
		b := q.buckets[t]
		out["tenant."+name+".requests"] = float64(b.requests)
		out["tenant."+name+".throttled"] = float64(b.throttled)
		out["tenant."+name+".spent"] = b.spent
	}
	return out
}
