package web

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// clusterServer is testServer with membership rows and run-ownership leases
// seeded, so every /api/v1/cluster resource has content.
func clusterServer(t *testing.T) (*httptest.Server, *System) {
	t.Helper()
	srv, wsys, _ := testServer(t)
	leases := wsys.Core.Leases
	for _, name := range []string{"orch-a", "orch-b", "orch-c"} {
		if _, err := leases.Heartbeat(name, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for _, run := range []string{"run-x", "run-y"} {
		if _, err := leases.Acquire(run, "orch-a", time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	return srv, wsys
}

// TestClusterIndex is the /api/v1/cluster contract: pool summary plus links
// to every child resource.
func TestClusterIndex(t *testing.T) {
	srv, _ := clusterServer(t)
	var body struct {
		Orchestrators struct{ Total, Live int } `json:"orchestrators"`
		Leases        struct{ Total, Live int } `json:"leases"`
		QueueDepth    int                       `json:"queue_depth"`
		AsyncDetect   bool                      `json:"async_detect"`
		Links         map[string]string         `json:"links"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster", nil), 200, &body)
	if body.Orchestrators.Total != 3 || body.Orchestrators.Live != 3 {
		t.Fatalf("orchestrators %+v, want 3/3", body.Orchestrators)
	}
	if body.Leases.Total != 2 || body.Leases.Live != 2 {
		t.Fatalf("leases %+v, want 2/2", body.Leases)
	}
	if body.AsyncDetect {
		t.Fatal("async_detect true without a scheduler attached")
	}
	for _, rel := range []string{"orchestrators", "leases", "queues"} {
		if body.Links[rel] != "/api/v1/cluster/"+rel {
			t.Fatalf("link %q = %q", rel, body.Links[rel])
		}
	}
	// Method and path contracts.
	resp, err := http.Post(srv.URL+"/api/v1/cluster", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, resp, http.StatusMethodNotAllowed, "method_not_allowed")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/cluster/nope", nil), http.StatusNotFound, "not_found")
}

// TestClusterOrchestratorsPagination pages the membership rows with a name
// cursor and pins the 400 contract for bad limits.
func TestClusterOrchestratorsPagination(t *testing.T) {
	srv, _ := clusterServer(t)
	var page struct {
		Orchestrators []struct {
			Name  string `json:"name"`
			Token int64  `json:"token"`
			Live  bool   `json:"live"`
		} `json:"orchestrators"`
		NextCursor string `json:"next_cursor"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster/orchestrators?limit=2", nil), 200, &page)
	if len(page.Orchestrators) != 2 || page.Orchestrators[0].Name != "orch-a" || page.Orchestrators[1].Name != "orch-b" {
		t.Fatalf("page 1: %+v", page.Orchestrators)
	}
	if page.NextCursor != "orch-b" {
		t.Fatalf("next_cursor %q, want orch-b", page.NextCursor)
	}
	if !page.Orchestrators[0].Live || page.Orchestrators[0].Token == 0 {
		t.Fatalf("member row incomplete: %+v", page.Orchestrators[0])
	}
	page.Orchestrators, page.NextCursor = nil, ""
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster/orchestrators?limit=2&after=orch-b", nil), 200, &page)
	if len(page.Orchestrators) != 1 || page.Orchestrators[0].Name != "orch-c" || page.NextCursor != "" {
		t.Fatalf("page 2: %+v next=%q", page.Orchestrators, page.NextCursor)
	}
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/cluster/orchestrators?limit=0", nil),
		http.StatusBadRequest, "bad_request")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/cluster/orchestrators?limit=501", nil),
		http.StatusBadRequest, "bad_request")
}

// TestClusterLeasesPagination pages the run-ownership leases and pins that
// membership rows never leak into them.
func TestClusterLeasesPagination(t *testing.T) {
	srv, _ := clusterServer(t)
	var page struct {
		Leases []struct {
			Resource string `json:"resource"`
			Holder   string `json:"holder"`
			Token    int64  `json:"token"`
			Live     bool   `json:"live"`
		} `json:"leases"`
		NextCursor string `json:"next_cursor"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster/leases?limit=1", nil), 200, &page)
	if len(page.Leases) != 1 || page.Leases[0].Resource != "run-x" || page.NextCursor != "run-x" {
		t.Fatalf("page 1: %+v next=%q", page.Leases, page.NextCursor)
	}
	if page.Leases[0].Holder != "orch-a" || !page.Leases[0].Live {
		t.Fatalf("lease row incomplete: %+v", page.Leases[0])
	}
	page.Leases, page.NextCursor = nil, ""
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster/leases?after=run-x", nil), 200, &page)
	if len(page.Leases) != 1 || page.Leases[0].Resource != "run-y" || page.NextCursor != "" {
		t.Fatalf("page 2: %+v", page.Leases)
	}
	for _, l := range page.Leases {
		if strings.HasPrefix(l.Resource, cluster.OrchestratorPrefix) {
			t.Fatalf("membership row leaked into run leases: %+v", l)
		}
	}
}

// TestClusterQueues pins the admission queue view: FIFO order, per-run
// links, and the worker dispatch gauges riding along.
func TestClusterQueues(t *testing.T) {
	srv, wsys := clusterServer(t)
	admA, err := wsys.Core.AdmitDetection(core.RunOptions{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	admB, err := wsys.Core.AdmitDetection(core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Admissions struct {
			Depth   int `json:"depth"`
			Pending []struct {
				RunID  string            `json:"run_id"`
				Tenant string            `json:"tenant"`
				Links  map[string]string `json:"links"`
			} `json:"pending"`
		} `json:"admissions"`
		Dispatch map[string]float64 `json:"dispatch"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster/queues", nil), 200, &body)
	if body.Admissions.Depth != 2 || len(body.Admissions.Pending) != 2 {
		t.Fatalf("depth %d pending %d, want 2/2", body.Admissions.Depth, len(body.Admissions.Pending))
	}
	if body.Admissions.Pending[0].RunID != admA.RunID || body.Admissions.Pending[1].RunID != admB.RunID {
		t.Fatalf("queue order %+v, want FIFO %s then %s", body.Admissions.Pending, admA.RunID, admB.RunID)
	}
	if body.Admissions.Pending[0].Tenant != "acme" {
		t.Fatalf("tenant %q, want acme", body.Admissions.Pending[0].Tenant)
	}
	if got := body.Admissions.Pending[0].Links["run"]; got != "/api/v1/runs/"+admA.RunID {
		t.Fatalf("run link %q", got)
	}
	if body.Dispatch == nil {
		t.Fatal("dispatch gauges missing")
	}
}

// TestClusterRunOwner pins the per-run ownership resource: the lease when
// claimed, 404 with the envelope when never claimed, 404 on bad subpaths.
func TestClusterRunOwner(t *testing.T) {
	srv, _ := clusterServer(t)
	var body struct {
		RunID string `json:"run_id"`
		Owner struct {
			Holder string `json:"holder"`
			Token  int64  `json:"token"`
			Live   bool   `json:"live"`
		} `json:"owner"`
		Links map[string]string `json:"links"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster/runs/run-x/owner", nil), 200, &body)
	if body.RunID != "run-x" || body.Owner.Holder != "orch-a" || !body.Owner.Live {
		t.Fatalf("owner: %+v", body)
	}
	if body.Links["run"] != "/api/v1/runs/run-x" {
		t.Fatalf("run link %q", body.Links["run"])
	}
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/cluster/runs/run-unclaimed/owner", nil),
		http.StatusNotFound, "not_found")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/cluster/runs/run-x", nil),
		http.StatusNotFound, "not_found")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/cluster/runs/run-x/leases", nil),
		http.StatusNotFound, "not_found")
}

// TestWorkersAliasParity pins the deprecation contract: /api/v1/workers
// still serves the combined payload, carries Deprecation + successor Link
// headers, and agrees with the /api/v1/cluster resources on every lease.
func TestWorkersAliasParity(t *testing.T) {
	srv, _ := clusterServer(t)
	resp := getResp(t, srv.URL+"/api/v1/workers", nil)
	if resp.Header.Get("Deprecation") != "true" {
		t.Fatal("alias missing Deprecation header")
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "/api/v1/cluster") {
		t.Fatalf("alias Link header %q does not name the successor", link)
	}
	var workers struct {
		Counters map[string]float64 `json:"counters"`
		Leases   []struct {
			Resource string `json:"resource"`
			Holder   string `json:"holder"`
			Token    int64  `json:"token"`
		} `json:"leases"`
	}
	decodeJSON(t, resp, 200, &workers)
	if len(workers.Leases) != 5 { // 3 membership rows + 2 run leases
		t.Fatalf("alias leases %d, want 5", len(workers.Leases))
	}
	// Rebuild the same set from the successor resources.
	type row struct {
		holder string
		token  int64
	}
	fromCluster := map[string]row{}
	var members struct {
		Orchestrators []struct {
			Name  string `json:"name"`
			Token int64  `json:"token"`
		} `json:"orchestrators"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster/orchestrators", nil), 200, &members)
	for _, m := range members.Orchestrators {
		fromCluster[cluster.MemberResource(m.Name)] = row{m.Name, m.Token}
	}
	var leases struct {
		Leases []struct {
			Resource string `json:"resource"`
			Holder   string `json:"holder"`
			Token    int64  `json:"token"`
		} `json:"leases"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster/leases", nil), 200, &leases)
	for _, l := range leases.Leases {
		fromCluster[l.Resource] = row{l.Holder, l.Token}
	}
	for _, l := range workers.Leases {
		got, ok := fromCluster[l.Resource]
		if !ok {
			t.Fatalf("alias lease %q absent from /api/v1/cluster", l.Resource)
		}
		if got.token != l.Token {
			t.Fatalf("lease %q token: alias %d, cluster %d", l.Resource, l.Token, got.token)
		}
	}
}

// TestClusterQuota pins that the cluster tree sits behind the same tenant
// quota gate as the rest of /api/v1.
func TestClusterQuota(t *testing.T) {
	srv, _ := quotaServer(t, 0.001, 1)
	hdr := map[string]string{TenantHeader: "acme"}
	resp := getResp(t, srv.URL+"/api/v1/cluster", hdr)
	if resp.StatusCode != 200 {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = getResp(t, srv.URL+"/api/v1/cluster", hdr)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	wantEnvelope(t, resp, http.StatusTooManyRequests, "rate_limited")
}

// awaitRunCompleted polls an admitted run's URL until it reads completed.
// Until an orchestrator claims the run there is no run row yet — 404 means
// "still queued", part of the documented admitted→claimed transition.
func awaitRunCompleted(t *testing.T, url string, deadline time.Time) {
	t.Helper()
	for {
		var run struct {
			Status string `json:"status"`
		}
		poll := getResp(t, url, nil)
		if poll.StatusCode == http.StatusNotFound {
			poll.Body.Close()
			run.Status = "admitted"
		} else {
			decodeJSON(t, poll, 200, &run)
		}
		if run.Status == "completed" {
			return
		}
		if run.Status == "failed" || run.Status == "abandoned" {
			t.Fatalf("admitted run ended %q", run.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("admitted run still %q at the deadline", run.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAsyncDetect pins the redesigned POST /api/v1/detect: with a scheduler
// attached the response is 202 Accepted + the run's URL, the scheduler
// executes the admitted run to completion under its pre-minted ID, and
// ?wait=true still forces the synchronous path.
func TestAsyncDetect(t *testing.T) {
	srv, wsys, taxa := testServer(t)
	sys := wsys.Core
	var outcomes atomic.Int32
	backend := sys.SchedulerBackend(taxa.Checklist, core.RunOptions{}, func(*core.DetectionOutcome) { outcomes.Add(1) })
	sched := &cluster.Scheduler{
		Name: "orch-web", Leases: sys.Leases, Backend: backend,
		TTL: 500 * time.Millisecond, Poll: 10 * time.Millisecond,
	}
	if err := sched.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Stop)
	wsys.Scheduler = sched

	resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	loc := resp.Header.Get("Location")
	var accepted struct {
		RunID  string            `json:"run_id"`
		Status string            `json:"status"`
		Links  map[string]string `json:"links"`
	}
	decodeJSON(t, resp, http.StatusAccepted, &accepted)
	if accepted.Status != "admitted" || accepted.RunID == "" {
		t.Fatalf("accepted body: %+v", accepted)
	}
	if want := "/api/v1/runs/" + accepted.RunID; loc != want || accepted.Links["run"] != want {
		t.Fatalf("Location %q links %+v, want %q", loc, accepted.Links, want)
	}

	// The scheduler drains the admission; the run URL turns terminal.
	deadline := time.Now().Add(30 * time.Second)
	awaitRunCompleted(t, srv.URL+loc, deadline)
	// The outcome callback fires on the scheduler goroutine after the run
	// row turns terminal — give the settle a moment.
	for outcomes.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := outcomes.Load(); n != 1 {
		t.Fatalf("scheduler produced %d outcomes, want 1", n)
	}

	// ?wait=true keeps the synchronous contract: 200 with run stats inline.
	resp, err = http.Post(srv.URL+"/api/v1/detect?wait=true", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sync struct {
		RunID         string `json:"run_id"`
		DistinctNames int    `json:"distinct_names"`
	}
	decodeJSON(t, resp, 200, &sync)
	if sync.RunID == "" || sync.DistinctNames != 100 {
		t.Fatalf("sync body: %+v", sync)
	}
}

// TestAsyncDetectWakesPool is the request's view of event-driven admission:
// the pool member's poll timer is an hour away, so POST /api/v1/detect → 202 →
// the Location URL can only reach completed because the admission's commit
// woke the member — and /api/v1/metrics then shows the wake and the queue wait
// it measured, under cluster-scheduler.
func TestAsyncDetectWakesPool(t *testing.T) {
	srv, wsys, taxa := testServer(t)
	sys := wsys.Core
	sched := &cluster.Scheduler{
		Name: "orch-web", Leases: sys.Leases, TTL: 3 * time.Hour, Poll: time.Hour,
		Backend: sys.SchedulerBackend(taxa.Checklist, core.RunOptions{}, wsys.RecordOutcome),
	}
	if err := sched.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Stop)
	wsys.Scheduler = sched

	resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	loc := resp.Header.Get("Location")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || loc == "" {
		t.Fatalf("POST detect: status %d, Location %q; want 202 and the run URL", resp.StatusCode, loc)
	}
	// Ten seconds against a poll timer an hour away: only the wake passes.
	deadline := time.Now().Add(10 * time.Second)
	awaitRunCompleted(t, srv.URL+loc, deadline)

	// The wait is observed on the scheduler goroutine once the run has
	// returned, just after the run row turned terminal.
	var got map[string]float64
	for got["scheduler.admission_wait.count"] != 1 && time.Now().Before(deadline) {
		var ms []MetricsEntry
		decodeJSON(t, getResp(t, srv.URL+"/api/v1/metrics", nil), 200, &ms)
		for _, m := range ms {
			if m.Entity == "subsystem:cluster-scheduler" {
				got = m.Measurements
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got["scheduler.wakes"] < 1 || got["scheduler.admission_wait.count"] != 1 || got["scheduler.completed"] != 1 {
		t.Fatalf("cluster-scheduler after one async detect: %v", got)
	}
	for _, k := range []string{"scheduler.settled", "scheduler.admission_wait.mean_us", "scheduler.admission_wait.max_us",
		"scheduler.admission_wait.p50_us", "scheduler.admission_wait.p95_us", "scheduler.admission_wait.p99_us"} {
		if _, ok := got[k]; !ok {
			t.Errorf("cluster-scheduler metrics missing %s", k)
		}
	}
	if got["scheduler.ticks"] != 0 {
		t.Errorf("scheduler.ticks = %v with the poll timer an hour away", got["scheduler.ticks"])
	}
}

// TestDetectStaysSyncWithoutScheduler pins the compatibility default: no
// scheduler in the process means POST /api/v1/detect blocks and answers 200
// exactly as before the redesign.
func TestDetectStaysSyncWithoutScheduler(t *testing.T) {
	srv, _, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		RunID string `json:"run_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.RunID == "" {
		t.Fatal("sync detect without run_id")
	}
}
