package web

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/fnjv"
	"repro/internal/shard"
)

// quotaServer is testServer with a tight per-tenant quota attached.
func quotaServer(t *testing.T, rate, burst float64) (*httptest.Server, *System) {
	t.Helper()
	srv, wsys, _ := testServer(t)
	wsys.Quotas = shard.NewQuotas(shard.QuotaOptions{Rate: rate, Burst: burst})
	return srv, wsys
}

// TestAPITenantQuota is the per-tenant quota contract: a tenant that drains
// its bucket gets 429 with the standard error envelope, rate-limit headers
// and a Retry-After — while other tenants (and the default tenant) keep
// being served untouched.
func TestAPITenantQuota(t *testing.T) {
	srv, _ := quotaServer(t, 0.001, 3) // refill ~never within the test
	hdr := map[string]string{TenantHeader: "acme"}

	for i := 0; i < 3; i++ {
		resp := getResp(t, srv.URL+"/api/v1/runs", hdr)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
		wantRemaining := strconv.Itoa(3 - 1 - i)
		if got := resp.Header.Get("X-RateLimit-Remaining"); got != wantRemaining {
			t.Fatalf("request %d: X-RateLimit-Remaining %q, want %q", i, got, wantRemaining)
		}
		resp.Body.Close()
	}

	resp := getResp(t, srv.URL+"/api/v1/runs", hdr)
	if got := resp.Header.Get("X-RateLimit-Limit"); got != "3" {
		t.Fatalf("X-RateLimit-Limit %q, want 3", got)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("429 without Retry-After")
	} else if secs, err := strconv.Atoi(got); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q not a positive integer", got)
	}
	wantEnvelope(t, resp, http.StatusTooManyRequests, "rate_limited")

	// The throttled tenant does not poison anyone else.
	other := getResp(t, srv.URL+"/api/v1/runs", map[string]string{TenantHeader: "umbrella"})
	if other.StatusCode != 200 {
		t.Fatalf("other tenant throttled: status %d", other.StatusCode)
	}
	other.Body.Close()
	def := getResp(t, srv.URL+"/api/v1/runs", nil)
	if def.StatusCode != 200 {
		t.Fatalf("default tenant throttled: status %d", def.StatusCode)
	}
	def.Body.Close()
}

// TestAPITenantValidation rejects ill-formed tenant names with 400 and the
// envelope, before any quota is charged.
func TestAPITenantValidation(t *testing.T) {
	srv, wsys := quotaServer(t, 50, 100)
	resp := getResp(t, srv.URL+"/api/v1/runs", map[string]string{TenantHeader: "Not A Tenant!"})
	wantEnvelope(t, resp, http.StatusBadRequest, "bad_request")
	if got := wsys.Quotas.Counters()["tenant.Not A Tenant!.requests"]; got != 0 {
		t.Fatalf("invalid tenant charged a bucket: %v", got)
	}
}

// TestAPINoQuotasConfigured pins that a server without a quota table serves
// tenant-tagged requests unthrottled (the pre-sharding default).
func TestAPINoQuotasConfigured(t *testing.T) {
	srv, _, _ := testServer(t)
	resp := getResp(t, srv.URL+"/api/v1/runs", map[string]string{TenantHeader: "acme"})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-RateLimit-Limit"); got != "" {
		t.Fatalf("rate headers emitted without quotas: %q", got)
	}
	resp.Body.Close()
}

// TestSyncDetectKeepsTenant: a synchronous detect runs for the X-Tenant
// tenant — a tenant-qualified run ID over that tenant's distinct names only —
// even though the run is detached from the request's cancelation.
func TestSyncDetectKeepsTenant(t *testing.T) {
	srv, wsys, _ := testServer(t)
	var owned []*fnjv.Record
	names := map[string]bool{}
	wsys.Core.Records.Scan(func(rec *fnjv.Record) bool {
		r := *rec
		r.ID = shard.Qualify("acme", rec.ID)
		owned = append(owned, &r)
		if r.Species != "" {
			names[r.Species] = true
		}
		return len(owned) < 40
	})
	if err := wsys.Core.Records.PutAll(owned); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/v1/detect?wait=true", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		RunID         string `json:"run_id"`
		DistinctNames int    `json:"distinct_names"`
	}
	decodeJSON(t, resp, http.StatusOK, &out)
	if tenant, _ := shard.Split(out.RunID); tenant != "acme" {
		t.Fatalf("run ID %q is not acme-qualified", out.RunID)
	}
	if out.DistinctNames != len(names) {
		t.Fatalf("acme's run checked %d distinct names, want the tenant's %d", out.DistinctNames, len(names))
	}
}
