package web

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/shard"
)

// Tenancy at the HTTP boundary: every /api/v1 request may name its tenant in
// the X-Tenant header. The tenant scopes detection runs (run IDs are minted
// as "tenant:run-NNNNNN" and the workflow input is the tenant's slice of the
// collection) and is the key the per-tenant quota buckets charge. No header
// means the default tenant "" — the single-tenant behaviour of earlier
// versions, unchanged.

// TenantHeader is the request header naming the calling tenant.
const TenantHeader = "X-Tenant"

type tenantCtxKey struct{}

// TenantFrom returns the tenant the request authenticated as, "" for the
// default tenant.
func TenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantCtxKey{}).(string)
	return t
}

// withTenant stamps the tenant into the request context.
func withTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// tenantGate validates the X-Tenant header, charges the tenant's quota
// bucket one token, and either forwards the request with
// the tenant in its context or answers 429 with the standard error envelope.
// Requests without a header run as the default tenant; an ill-formed tenant
// name is a 400. When no quota table is configured the gate only validates
// and stamps the tenant.
func (s *Server) tenantGate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get(TenantHeader)
		if tenant != "" && !shard.ValidTenant(tenant) {
			badRequest(w, fmt.Errorf("invalid %s %q: want lowercase [a-z0-9-], at most 64 chars", TenantHeader, tenant))
			return
		}
		if q := s.System.Quotas; q != nil {
			d := q.Allow(tenant)
			w.Header().Set("X-RateLimit-Limit", strconv.Itoa(d.Limit))
			w.Header().Set("X-RateLimit-Remaining", strconv.Itoa(d.Remaining))
			if !d.Allowed {
				secs := int(d.RetryAfter / time.Second)
				if d.RetryAfter%time.Second != 0 {
					secs++ // Retry-After is whole seconds, rounded up
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeAPIError(w, http.StatusTooManyRequests, "rate_limited",
					fmt.Sprintf("tenant %q exhausted its request quota; retry in %v", tenant, d.RetryAfter))
				return
			}
		}
		h(w, r.WithContext(withTenant(r.Context(), tenant)))
	}
}
