// The /api/v1/cluster resource tree: the control surface of the scheduler
// pool. What used to be one grab-bag /api/v1/workers payload is now a
// resource per concern —
//
//	/api/v1/cluster               index + pool summary
//	/api/v1/cluster/orchestrators membership rows (cursor-paginated)
//	/api/v1/cluster/leases        run-ownership leases (cursor-paginated)
//	/api/v1/cluster/queues        admission queue + dispatch gauges
//	/api/v1/cluster/runs/{id}/owner  one run's ownership lease
//
// — under the standard envelope, pagination, and error conventions of the
// rest of /api/v1.
package web

import (
	"net/http"
	"strings"
	"time"
)

// leaseJSON is the wire shape of one fenced lease, shared by every endpoint
// that renders ownership.
type leaseJSON struct {
	Resource string    `json:"resource"`
	Holder   string    `json:"holder"`
	Token    int64     `json:"token"`
	Expires  time.Time `json:"expires"`
	Live     bool      `json:"live"`
}

// apiCluster dispatches the /api/v1/cluster subtree.
func (s *Server) apiCluster(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/api/v1/cluster"), "/")
	switch {
	case rest == "":
		s.apiClusterIndex(w, r)
	case rest == "orchestrators":
		s.apiClusterOrchestrators(w, r)
	case rest == "leases":
		s.apiClusterLeases(w, r)
	case rest == "queues":
		s.apiClusterQueues(w, r)
	case strings.HasPrefix(rest, "runs/"):
		runID, sub, ok := strings.Cut(strings.TrimPrefix(rest, "runs/"), "/")
		if runID == "" || !ok || sub != "owner" {
			writeAPIError(w, http.StatusNotFound, "not_found", "no such cluster resource: "+rest)
			return
		}
		s.apiClusterRunOwner(w, r, runID)
	default:
		writeAPIError(w, http.StatusNotFound, "not_found", "no such cluster resource: "+rest)
	}
}

// apiClusterIndex summarizes the pool and links the child resources.
func (s *Server) apiClusterIndex(w http.ResponseWriter, r *http.Request) {
	now := timeNow()
	liveMembers, totalMembers := 0, 0
	for _, m := range s.svc.Orchestrators(now) {
		totalMembers++
		if m.Live {
			liveMembers++
		}
	}
	liveLeases, totalLeases := 0, 0
	for _, l := range s.svc.RunLeases() {
		totalLeases++
		if l.Live(now) {
			liveLeases++
		}
	}
	depth := 0
	if st, err := s.svc.Admissions(); err == nil {
		depth = st.Depth
	}
	writeJSON(w, struct {
		Orchestrators struct {
			Total int `json:"total"`
			Live  int `json:"live"`
		} `json:"orchestrators"`
		Leases struct {
			Total int `json:"total"`
			Live  int `json:"live"`
		} `json:"leases"`
		QueueDepth  int               `json:"queue_depth"`
		AsyncDetect bool              `json:"async_detect"`
		Links       map[string]string `json:"links"`
	}{
		struct {
			Total int `json:"total"`
			Live  int `json:"live"`
		}{totalMembers, liveMembers},
		struct {
			Total int `json:"total"`
			Live  int `json:"live"`
		}{totalLeases, liveLeases},
		depth,
		s.svc.AsyncDetect(),
		map[string]string{
			"orchestrators": "/api/v1/cluster/orchestrators",
			"leases":        "/api/v1/cluster/leases",
			"queues":        "/api/v1/cluster/queues",
		},
	})
}

// apiClusterOrchestrators pages the membership rows by name cursor.
func (s *Server) apiClusterOrchestrators(w http.ResponseWriter, r *http.Request) {
	limit, err := parsePageLimit(r.URL.Query().Get("limit"), 100)
	if err != nil {
		badRequest(w, err)
		return
	}
	after := r.URL.Query().Get("after")
	type memberJSON struct {
		Name    string    `json:"name"`
		Token   int64     `json:"token"`
		Expires time.Time `json:"expires"`
		Live    bool      `json:"live"`
	}
	members := s.svc.Orchestrators(timeNow())
	out := make([]memberJSON, 0, limit)
	next := ""
	for _, m := range members {
		if after != "" && m.Name <= after {
			continue
		}
		if len(out) == limit {
			next = out[len(out)-1].Name
			break
		}
		out = append(out, memberJSON{Name: m.Name, Token: m.Token, Expires: m.Expires, Live: m.Live})
	}
	writeJSON(w, struct {
		Orchestrators []memberJSON `json:"orchestrators"`
		NextCursor    string       `json:"next_cursor,omitempty"`
	}{out, next})
}

// apiClusterLeases pages the run-ownership leases by resource cursor.
func (s *Server) apiClusterLeases(w http.ResponseWriter, r *http.Request) {
	limit, err := parsePageLimit(r.URL.Query().Get("limit"), 100)
	if err != nil {
		badRequest(w, err)
		return
	}
	after := r.URL.Query().Get("after")
	now := timeNow()
	out := make([]leaseJSON, 0, limit)
	next := ""
	for _, l := range s.svc.RunLeases() {
		if after != "" && l.Resource <= after {
			continue
		}
		if len(out) == limit {
			next = out[len(out)-1].Resource
			break
		}
		out = append(out, leaseJSON{
			Resource: l.Resource, Holder: l.Holder, Token: l.Token,
			Expires: l.Expires, Live: l.Live(now),
		})
	}
	writeJSON(w, struct {
		Leases     []leaseJSON `json:"leases"`
		NextCursor string      `json:"next_cursor,omitempty"`
	}{out, next})
}

// apiClusterQueues reports the admission queue (depth + FIFO contents) and
// the worker pool's dispatch gauges.
func (s *Server) apiClusterQueues(w http.ResponseWriter, r *http.Request) {
	type admissionJSON struct {
		RunID      string            `json:"run_id"`
		Tenant     string            `json:"tenant,omitempty"`
		EnqueuedAt time.Time         `json:"enqueued_at"`
		Links      map[string]string `json:"links"`
	}
	pending := []admissionJSON{}
	depth := 0
	if st, err := s.svc.Admissions(); err == nil {
		depth = st.Depth
		for _, adm := range st.Pending {
			pending = append(pending, admissionJSON{
				RunID: adm.RunID, Tenant: adm.Tenant, EnqueuedAt: adm.EnqueuedAt,
				Links: map[string]string{
					"run":   "/api/v1/runs/" + adm.RunID,
					"owner": "/api/v1/cluster/runs/" + adm.RunID + "/owner",
				},
			})
		}
	}
	writeJSON(w, struct {
		Admissions struct {
			Depth   int             `json:"depth"`
			Pending []admissionJSON `json:"pending"`
		} `json:"admissions"`
		Dispatch map[string]float64 `json:"dispatch"`
	}{
		struct {
			Depth   int             `json:"depth"`
			Pending []admissionJSON `json:"pending"`
		}{depth, pending},
		s.svc.Dispatch(),
	})
}

// apiClusterRunOwner answers one run's ownership: 404 when no orchestrator
// ever claimed it.
func (s *Server) apiClusterRunOwner(w http.ResponseWriter, r *http.Request, runID string) {
	l, err := s.svc.RunOwner(runID)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, struct {
		RunID string            `json:"run_id"`
		Owner leaseJSON         `json:"owner"`
		Links map[string]string `json:"links"`
	}{
		runID,
		leaseJSON{
			Resource: l.Resource, Holder: l.Holder, Token: l.Token,
			Expires: l.Expires, Live: l.Live(timeNow()),
		},
		map[string]string{"run": "/api/v1/runs/" + runID},
	})
}
