package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/web"
)

// opDeadline is how long one operation may take before it counts as failed.
const opDeadline = 30 * time.Second

// pollEvery is the client's polling interval on an asynchronous detection.
const pollEvery = 10 * time.Millisecond

// driver is the client side: it speaks /api/v1 over keep-alive connections
// and keeps the tally of operations attempted and failed.
type driver struct {
	st   *stack
	base string
	http *http.Client

	mu           sync.Mutex
	acked        []string // runs the server reported completed, oldest first
	attempted    int
	failed       int
	firstFailure error
}

func newDriver(st *stack) *driver {
	return &driver{
		st:   st,
		base: st.srv.URL,
		http: &http.Client{
			Timeout:   opDeadline,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * max(st.spec.Clients, 1)},
		},
	}
}

// rebase points the driver at the stack's current listener (after a reopen).
func (d *driver) rebase() {
	d.http.CloseIdleConnections()
	d.base = d.st.srv.URL
}

// tally counts one attempted operation and, when err is set, one failure.
func (d *driver) tally(err error) {
	d.mu.Lock()
	d.attempted++
	if err != nil {
		d.failed++
		if d.firstFailure == nil {
			d.firstFailure = err
		}
	}
	d.mu.Unlock()
}

func (d *driver) ackedRuns() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.acked...)
}

func (d *driver) get(path, tenant string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		req.Header.Set(web.TenantHeader, tenant)
	}
	return d.http.Do(req)
}

// getJSON GETs path, requires 200 and decodes the body into v (discarding it
// when v is nil).
func (d *driver) getJSON(path string, v any) error {
	resp, err := d.get(path, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if v == nil {
		n, err := io.Copy(io.Discard, resp.Body)
		if err == nil && n == 0 {
			err = fmt.Errorf("GET %s: empty body", path)
		}
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// detection is one completed detection request as the client saw it.
type detection struct {
	runID   string
	sent    time.Time     // when the request was due
	latency time.Duration // due time to terminal state
	elapsed time.Duration // the server's own elapsed_us (synchronous only)
}

// runJSON is the part of the run resource the benchmark reads.
type runJSON struct {
	RunID      string     `json:"run_id"`
	Status     string     `json:"status"`
	StartedAt  time.Time  `json:"started_at"`
	FinishedAt *time.Time `json:"finished_at"`
}

// detect requests one detection for tenant and waits for its terminal state:
// a synchronous server answers 200 with the outcome, an asynchronous one 202
// with the run's URL, which is polled (404 means still admitted) until the
// run completes. due is when the request was scheduled; zero means now. The
// operation is tallied, and a completed run is remembered as acknowledged.
func (d *driver) detect(tenant string, due time.Time) (detection, error) {
	if due.IsZero() {
		due = time.Now()
	}
	det, err := d.detectOnce(tenant, due)
	d.tally(err)
	if err == nil {
		d.mu.Lock()
		d.acked = append(d.acked, det.runID)
		d.mu.Unlock()
	}
	return det, err
}

func (d *driver) detectOnce(tenant string, due time.Time) (detection, error) {
	det := detection{sent: due}
	req, err := http.NewRequest(http.MethodPost, d.base+"/api/v1/detect", nil)
	if err != nil {
		return det, err
	}
	if tenant != "" {
		req.Header.Set(web.TenantHeader, tenant)
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return det, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var out struct {
			RunID         string `json:"run_id"`
			DistinctNames int    `json:"distinct_names"`
			Outdated      int    `json:"outdated"`
			Unknown       int    `json:"unknown"`
			Unavailable   int    `json:"unavailable"`
			ElapsedUS     int64  `json:"elapsed_us"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return det, err
		}
		det.latency = time.Since(due)
		det.runID = out.RunID
		det.elapsed = time.Duration(out.ElapsedUS) * time.Microsecond
		got := detectCounts{out.DistinctNames, out.Outdated, out.Unknown, out.Unavailable}
		if got != d.st.want {
			return det, fmt.Errorf("run %s reported %+v, want %+v", out.RunID, got, d.st.want)
		}
		return det, nil
	case http.StatusAccepted:
		var adm struct {
			RunID string `json:"run_id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&adm); err != nil {
			return det, err
		}
		det.runID = adm.RunID
		loc := resp.Header.Get("Location")
		for time.Since(due) < opDeadline {
			time.Sleep(pollEvery)
			status, err := d.pollRun(loc, tenant)
			if err != nil {
				return det, err
			}
			switch status {
			case "", "running":
			case "completed":
				det.latency = time.Since(due)
				return det, nil
			default:
				return det, fmt.Errorf("run %s ended %s", adm.RunID, status)
			}
		}
		return det, fmt.Errorf("run %s not terminal after %v", adm.RunID, opDeadline)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return det, fmt.Errorf("POST /api/v1/detect: status %d: %s", resp.StatusCode, body)
	}
}

// pollRun reads the run's status; "" while the run is admitted but unclaimed.
func (d *driver) pollRun(loc, tenant string) (string, error) {
	resp, err := d.get(loc, tenant)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return "", nil
	case http.StatusOK:
		var run runJSON
		if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
			return "", err
		}
		return run.Status, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return "", fmt.Errorf("GET %s: status %d", loc, resp.StatusCode)
	}
}

// ---- read mix ----

type readKind int

const (
	readRun readKind = iota
	readRuns
	readNodes
	readEdges
	readSpans
	readGraph
	readRecords
	readKinds
)

var readKindNames = [readKinds]string{"run", "runs", "nodes", "edges", "spans", "graph", "records"}

// readMix is how often each kind occurs in one cycle of 20 reads.
//
// The graph export is the slowest read; at two in twenty it owns the slowest
// tenth of the mix, so the p95 lies inside its latencies rather than on the
// edge between it and the page reads.
var readMix = [readKinds]int{readRun: 6, readRuns: 4, readNodes: 3, readEdges: 2, readSpans: 2, readGraph: 2, readRecords: 1}

// reader issues the read mix: a seeded order of the 20-read cycle, run IDs
// drawn half from the ten most recently completed runs and half from all of
// them, and the run listing walked by its cursor. Reads may be planned and
// fetched concurrently.
type reader struct {
	d     *driver
	cycle []readKind

	mu     sync.Mutex
	rng    *rand.Rand
	n      int
	cursor string // where the walk of /runs continues
}

// read is one planned GET of the mix.
type read struct {
	kind readKind
	path string
}

func newReader(d *driver, seed int64) *reader {
	r := &reader{d: d, rng: rand.New(rand.NewSource(seed))}
	for kind, count := range readMix {
		for i := 0; i < count; i++ {
			r.cycle = append(r.cycle, readKind(kind))
		}
	}
	r.rng.Shuffle(len(r.cycle), func(i, j int) { r.cycle[i], r.cycle[j] = r.cycle[j], r.cycle[i] })
	return r
}

func (r *reader) pickRun() string {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	n := len(r.d.acked)
	if r.rng.Intn(2) == 0 {
		return r.d.acked[n-1-r.rng.Intn(min(n, 10))]
	}
	return r.d.acked[r.rng.Intn(n)]
}

// plan chooses the next read of the cycle.
func (r *reader) plan() read {
	r.mu.Lock()
	defer r.mu.Unlock()
	rd := read{kind: r.cycle[r.n%len(r.cycle)]}
	r.n++
	switch rd.kind {
	case readRuns:
		rd.path = "/api/v1/runs?limit=16&after=" + url.QueryEscape(r.cursor)
	case readRecords:
		species := r.d.st.species[r.rng.Intn(len(r.d.st.species))]
		rd.path = "/api/v1/records?species=" + url.QueryEscape(species)
	case readRun:
		rd.path = "/api/v1/runs/" + r.pickRun()
	case readGraph:
		rd.path = "/api/v1/runs/" + r.pickRun() + "/graph"
	default:
		rd.path = "/api/v1/runs/" + r.pickRun() + "/" + readKindNames[rd.kind] + "?limit=100"
	}
	return rd
}

// fetch performs a planned read, timed from due (zero means now), and
// tallies it.
func (r *reader) fetch(rd read, due time.Time) time.Duration {
	if due.IsZero() {
		due = time.Now()
	}
	var err error
	if rd.kind == readRuns {
		var page struct {
			Runs       []runJSON `json:"runs"`
			NextCursor string    `json:"next_cursor"`
		}
		err = r.d.getJSON(rd.path, &page)
		if err == nil && len(page.Runs) == 0 {
			err = fmt.Errorf("GET %s: empty page", rd.path)
		}
		r.mu.Lock()
		r.cursor = page.NextCursor
		r.mu.Unlock()
	} else {
		err = r.d.getJSON(rd.path, nil)
	}
	took := time.Since(due)
	r.d.tally(err)
	return took
}

// ---- whole-collection reads used after the window ----

// scanRuns walks /api/v1/runs by cursor and returns how often each run ID was
// listed and its status.
func (d *driver) scanRuns() (seen map[string]int, status map[string]string, err error) {
	seen, status = map[string]int{}, map[string]string{}
	after := ""
	for {
		var page struct {
			Runs       []runJSON `json:"runs"`
			NextCursor string    `json:"next_cursor"`
		}
		if err := d.getJSON("/api/v1/runs?limit=100&after="+url.QueryEscape(after), &page); err != nil {
			return nil, nil, err
		}
		for _, run := range page.Runs {
			seen[run.RunID]++
			status[run.RunID] = run.Status
		}
		if page.NextCursor == "" {
			return seen, status, nil
		}
		after = page.NextCursor
	}
}

// runSpans pages through the spans the program persisted for one run.
func (d *driver) runSpans(runID string) ([]telemetry.Span, error) {
	var all []telemetry.Span
	after := ""
	for {
		var page struct {
			Spans      []telemetry.Span `json:"spans"`
			NextCursor *int             `json:"next_cursor"`
		}
		if err := d.getJSON("/api/v1/runs/"+runID+"/spans?limit=500"+after, &page); err != nil {
			return nil, err
		}
		all = append(all, page.Spans...)
		if page.NextCursor == nil {
			return all, nil
		}
		after = "&after=" + strconv.Itoa(*page.NextCursor)
	}
}
