package web

import (
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestClusterIndex is the /api/v1/cluster contract: pool summary plus links
// to every child resource, and not_found for an unknown child.
func TestClusterIndex(t *testing.T) {
	srv, wsys, _ := testServer(t)
	if _, err := wsys.Core.AdmitDetection(core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	var body struct {
		QueueDepth  int               `json:"queue_depth"`
		AsyncDetect bool              `json:"async_detect"`
		Links       map[string]string `json:"links"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/cluster", nil), 200, &body)
	if body.QueueDepth != 1 {
		t.Fatalf("queue_depth %d, want 1", body.QueueDepth)
	}
	if body.AsyncDetect {
		t.Fatal("async_detect true without a scheduler attached")
	}
	if len(body.Links) != 1 || body.Links["queues"] != "/api/v1/cluster/queues" {
		t.Fatalf("links %v, want only queues", body.Links)
	}
	// Method and path contracts.
	resp, err := http.Post(srv.URL+"/api/v1/cluster", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, resp, http.StatusMethodNotAllowed, "method_not_allowed")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/cluster/nope", nil), http.StatusNotFound, "not_found")
}

// wantClusterGone checks that every path under /api/v1/cluster answers the
// standard not_found envelope, with a run admitted so the pool is not empty.
func wantClusterGone(t *testing.T, paths ...string) {
	t.Helper()
	srv, wsys, _ := testServer(t)
	if _, err := wsys.Core.AdmitDetection(core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		wantEnvelope(t, getResp(t, srv.URL+"/api/v1/cluster/"+path, nil), http.StatusNotFound, "not_found")
	}
}

// TestClusterOrchestratorsRemoved: the membership listing went with the
// membership rows; the route and its pagination queries answer not_found.
func TestClusterOrchestratorsRemoved(t *testing.T) {
	wantClusterGone(t, "orchestrators", "orchestrators?limit=2", "orchestrators?limit=2&after=orch-b")
}

// TestClusterLeasesRemoved: the run-lease listing went with the leases; the
// route and its pagination queries answer not_found.
func TestClusterLeasesRemoved(t *testing.T) {
	wantClusterGone(t, "leases", "leases?limit=1", "leases?after=run-x")
}

// TestClusterRunOwnerRemoved: the per-run ownership resource went with the
// leases; it and its neighbouring subpaths answer not_found.
func TestClusterRunOwnerRemoved(t *testing.T) {
	wantClusterGone(t, "runs/run-x/owner", "runs/run-x", "runs/run-x/leases")
}

// TestClusterQueues pins the admission queue view: FIFO order, per-run
// links, and the worker dispatch gauges riding along.
func TestClusterQueues(t *testing.T) {
	srv, wsys, _ := testServer(t)
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
	if links := body.Admissions.Pending[0].Links; len(links) != 1 || links["run"] != "/api/v1/runs/"+admA.RunID {
		t.Fatalf("links %v, want only the run", links)
	}
	if body.Dispatch == nil {
		t.Fatal("dispatch gauges missing")
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
		Poll: 10 * time.Millisecond,
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
		Name: "orch-web", Leases: sys.Leases, Poll: time.Hour,
		Backend: sys.SchedulerBackend(taxa.Checklist, core.RunOptions{}, nil),
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
