// The /api/v1/cluster resource tree: the control surface of the scheduler
// pool, under the standard envelope and error conventions of the rest of
// /api/v1 —
//
//	/api/v1/cluster         index + pool summary
//	/api/v1/cluster/queues  admission queue + dispatch gauges
//
// Run ownership is an in-memory set inside the one process that holds the
// store, so it has no resource of its own: the routes that served leases,
// membership rows and a run's owner answer not_found.
package web

import (
	"net/http"
	"strings"
	"time"
)

// apiCluster dispatches the /api/v1/cluster subtree.
func (s *Server) apiCluster(w http.ResponseWriter, r *http.Request) {
	switch rest := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/api/v1/cluster"), "/"); rest {
	case "":
		s.apiClusterIndex(w, r)
	case "queues":
		s.apiClusterQueues(w, r)
	default:
		writeAPIError(w, http.StatusNotFound, "not_found", "no such cluster resource: "+rest)
	}
}

// apiClusterIndex summarizes the pool and links the child resources.
func (s *Server) apiClusterIndex(w http.ResponseWriter, r *http.Request) {
	depth := 0
	if st, err := s.svc.Admissions(); err == nil {
		depth = st.Depth
	}
	writeJSON(w, struct {
		QueueDepth  int               `json:"queue_depth"`
		AsyncDetect bool              `json:"async_detect"`
		Links       map[string]string `json:"links"`
	}{
		depth,
		s.svc.AsyncDetect(),
		map[string]string{"queues": "/api/v1/cluster/queues"},
	})
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
				Links: map[string]string{"run": "/api/v1/runs/" + adm.RunID},
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
