package taxonomy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"
)

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// Service exposes a Checklist as an HTTP authority, mimicking the Catalogue
// of Life web service used by the paper's prototype. A fault injector
// reproduces the "several connection problems" the authors observed and
// scored as availability 0.9 (Listing 1).
type Service struct {
	checklist *Checklist
	maxDist   int // fuzzy-match budget; 0 disables fuzzy matching

	mu           sync.Mutex
	rng          *rand.Rand
	availability float64 // probability a request is served
	latency      time.Duration

	requests int64
	refused  int64
}

// ServiceOption customizes a Service.
type ServiceOption func(*Service)

// WithAvailability sets the probability a request succeeds (default 1.0).
func WithAvailability(p float64, seed int64) ServiceOption {
	return func(s *Service) {
		s.availability = p
		s.rng = rand.New(rand.NewSource(seed))
	}
}

// WithLatency adds fixed artificial latency per request.
func WithLatency(d time.Duration) ServiceOption {
	return func(s *Service) { s.latency = d }
}

// WithFuzzy enables server-side fuzzy matching within maxDist edits.
func WithFuzzy(maxDist int) ServiceOption {
	return func(s *Service) { s.maxDist = maxDist }
}

// SetAvailability changes the probability a request succeeds at runtime —
// the chaos harness degrades a live authority mid-run instead of restarting
// it. The fault injector's RNG (and hence its deterministic draw sequence)
// is left untouched.
func (s *Service) SetAvailability(p float64) {
	s.mu.Lock()
	s.availability = p
	s.mu.Unlock()
}

// SetLatency changes the per-request artificial latency at runtime.
func (s *Service) SetLatency(d time.Duration) {
	s.mu.Lock()
	s.latency = d
	s.mu.Unlock()
}

// NewService wraps a checklist in an HTTP authority.
func NewService(cl *Checklist, opts ...ServiceOption) *Service {
	s := &Service{
		checklist:    cl,
		availability: 1.0,
		rng:          rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Stats reports request counts since start.
func (s *Service) Stats() (requests, refused int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests, s.refused
}

// wireResolution is the JSON shape served over HTTP.
type wireResolution struct {
	Query        string    `json:"query"`
	Status       string    `json:"status"`
	TaxonID      string    `json:"taxon_id,omitempty"`
	AcceptedName string    `json:"accepted_name,omitempty"`
	AcceptedID   string    `json:"accepted_id,omitempty"`
	Group        string    `json:"group,omitempty"`
	Phylum       string    `json:"phylum,omitempty"`
	Class        string    `json:"class,omitempty"`
	Order        string    `json:"order,omitempty"`
	Family       string    `json:"family,omitempty"`
	Fuzzy        bool      `json:"fuzzy,omitempty"`
	Distance     int       `json:"distance,omitempty"`
	History      []wireEvt `json:"history,omitempty"`
}

type wireEvt struct {
	Date      time.Time `json:"date"`
	FromName  string    `json:"from_name"`
	ToName    string    `json:"to_name"`
	Reference string    `json:"reference"`
}

func toWire(r Resolution) wireResolution {
	w := wireResolution{
		Query:        r.Query,
		Status:       r.Status.String(),
		TaxonID:      r.TaxonID,
		AcceptedName: r.AcceptedName,
		AcceptedID:   r.AcceptedID,
		Group:        r.Group,
		Phylum:       r.Classification.Phylum,
		Class:        r.Classification.Class,
		Order:        r.Classification.Order,
		Family:       r.Classification.Family,
		Fuzzy:        r.Fuzzy,
		Distance:     r.Distance,
	}
	for _, e := range r.History {
		w.History = append(w.History, wireEvt(e))
	}
	return w
}

func fromWire(w wireResolution) Resolution {
	r := Resolution{
		Query:        w.Query,
		TaxonID:      w.TaxonID,
		AcceptedName: w.AcceptedName,
		AcceptedID:   w.AcceptedID,
		Group:        w.Group,
		Classification: Classification{
			Phylum: w.Phylum, Class: w.Class, Order: w.Order, Family: w.Family,
		},
		Fuzzy:    w.Fuzzy,
		Distance: w.Distance,
	}
	switch w.Status {
	case "accepted":
		r.Status = StatusAccepted
	case "synonym":
		r.Status = StatusSynonym
	case "provisionally accepted":
		r.Status = StatusProvisional
	default:
		r.Status = StatusUnknown
	}
	for _, e := range w.History {
		r.History = append(r.History, NomenclaturalEvent(e))
	}
	return r
}

// ServeHTTP routes the authority API:
//
//	GET /resolve?name=Genus+epithet   -> 200 wireResolution | 404 | 503
//	GET /healthz                      -> 200 "ok"
//	GET /stats                        -> 200 {"requests":n,"refused":m}
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/resolve":
		s.handleResolve(w, r)
	case "/resolve_batch":
		s.handleResolveBatch(w, r)
	case "/healthz":
		fmt.Fprintln(w, "ok")
	case "/stats":
		req, ref := s.Stats()
		json.NewEncoder(w).Encode(map[string]int64{"requests": req, "refused": ref})
	default:
		http.NotFound(w, r)
	}
}

func (s *Service) handleResolve(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.requests++
	drop := s.rng.Float64() >= s.availability
	if drop {
		s.refused++
	}
	latency := s.latency
	s.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	if drop {
		http.Error(w, "authority temporarily unavailable", http.StatusServiceUnavailable)
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		http.Error(w, "missing name parameter", http.StatusBadRequest)
		return
	}
	var res Resolution
	var err error
	if s.maxDist > 0 {
		res, err = s.checklist.ResolveFuzzy(name, s.maxDist)
	} else {
		res, err = s.checklist.Resolve(r.Context(), name)
	}
	if err != nil {
		if errors.Is(err, ErrUnknownName) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(toWire(res))
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(toWire(res))
}

type batchRequest struct {
	Names []string `json:"names"`
}

type batchResponse struct {
	Results []wireResolution `json:"results"`
}

// MaxBatch bounds one batch request: the service answers a larger one with a
// non-retryable 400, so Client.BatchResolve splits before it sends.
const MaxBatch = 5000

// handleResolveBatch resolves many names in one round trip (POST JSON
// {"names": [...]}) — what makes frequent re-verification of 1 929 names
// cheap over a real network. Availability is drawn once per batch: a batch
// is one connection.
func (s *Service) handleResolveBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	s.requests++
	drop := s.rng.Float64() >= s.availability
	if drop {
		s.refused++
	}
	latency := s.latency
	s.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	if drop {
		http.Error(w, "authority temporarily unavailable", http.StatusServiceUnavailable)
		return
	}
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Names) == 0 || len(req.Names) > MaxBatch {
		http.Error(w, fmt.Sprintf("batch size must be 1..%d", MaxBatch), http.StatusBadRequest)
		return
	}
	resp := batchResponse{Results: make([]wireResolution, 0, len(req.Names))}
	for _, name := range req.Names {
		var res Resolution
		var err error
		if s.maxDist > 0 {
			res, err = s.checklist.ResolveFuzzy(name, s.maxDist)
		} else {
			res, err = s.checklist.Resolve(r.Context(), name)
		}
		if err != nil {
			// Unknown names are data in a batch, flagged by status.
			res = Resolution{Query: name, Status: StatusUnknown}
		}
		resp.Results = append(resp.Results, toWire(res))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// Client resolves names against a remote authority Service with bounded
// retries. It records attempt/failure counts so the quality layer can
// *measure* the authority's availability instead of trusting the annotation.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retries is the number of additional attempts after a 503 (default 2).
	Retries int
	// Backoff between retries (default 10ms).
	Backoff time.Duration

	mu        sync.Mutex
	attempts  int64
	failures  int64
	spacing   time.Duration // BatchSpacing; 0 (a Client not built by NewClient) sends back to back
	nextBatch time.Time     // earliest start of the next bulk request
}

// BatchSpacing is the least time between the starts of two /resolve_batch
// requests of one client, retries and the chunks of a split call included. A
// bulk request stands for up to MaxBatch lookups, and a caller that batches —
// a detection run is one request now — would otherwise send the next as soon
// as its own CPU is done with the work in between. Paced, the load on the
// authority, and with it the rate of a closed loop of runs, is set by this
// interval and not by how fast the host happens to be. Single-name requests
// are not paced.
const BatchSpacing = 20 * time.Millisecond

// NewClient builds a client for the authority at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: 10 * time.Second},
		Retries: 2,
		Backoff: 10 * time.Millisecond,
		spacing: BatchSpacing,
	}
}

// ObservedAvailability reports the measured fraction of attempts that were
// served (1.0 when no attempts were made).
func (c *Client) ObservedAvailability() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempts == 0 {
		return 1.0
	}
	return 1.0 - float64(c.failures)/float64(c.attempts)
}

// Attempts reports total request attempts (including retries).
func (c *Client) Attempts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts
}

// ErrUnavailable is returned when the authority refused every attempt.
var ErrUnavailable = errors.New("taxonomy: authority unavailable")

// sleep waits d, or returns false if ctx died first — a cancelled run must
// not spend its remaining deadline sleeping.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// backoff sleeps the retry delay for attempt.
func (c *Client) backoff(ctx context.Context, attempt int) bool {
	return sleep(ctx, c.Backoff*time.Duration(attempt))
}

// pace takes the next bulk-request slot, BatchSpacing after the one before
// it, and sleeps until it comes (the slot stays taken if ctx dies first).
// Concurrent callers get slots of their own, in the order they asked.
func (c *Client) pace(ctx context.Context) bool {
	if c.spacing <= 0 {
		return ctx.Err() == nil
	}
	c.mu.Lock()
	now := time.Now()
	slot := c.nextBatch
	if slot.Before(now) {
		slot = now
	}
	c.nextBatch = slot.Add(c.spacing)
	c.mu.Unlock()
	return sleep(ctx, slot.Sub(now))
}

// Resolve implements Resolver over HTTP. Cancellation and deadlines on ctx
// abort in-flight requests and cut the retry loop short; exhaustion either
// way is reported as ErrUnavailable so callers have one failure mode to
// classify.
func (c *Client) Resolve(ctx context.Context, name string) (Resolution, error) {
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if !c.backoff(ctx, attempt) {
			lastErr = ctx.Err()
			break
		}
		c.mu.Lock()
		c.attempts++
		c.mu.Unlock()
		res, retryable, err := c.once(ctx, name)
		if err == nil || !retryable {
			return res, err
		}
		c.mu.Lock()
		c.failures++
		c.mu.Unlock()
		lastErr = err
	}
	return Resolution{Query: name, Status: StatusUnknown}, fmt.Errorf("%w after %d attempts: %v", ErrUnavailable, c.Retries+1, lastErr)
}

// BatchResolve resolves many names in one request per MaxBatch names (with
// the same retry policy as Resolve for each request). Results align with
// names; unknown names come back with StatusUnknown rather than an error, and
// a request that fails fails the whole call.
func (c *Client) BatchResolve(ctx context.Context, names []string) ([]Resolution, error) {
	if len(names) <= MaxBatch {
		return c.batchRequest(ctx, names)
	}
	out := make([]Resolution, 0, len(names))
	for len(names) > 0 {
		chunk := names[:min(len(names), MaxBatch)]
		names = names[len(chunk):]
		res, err := c.batchRequest(ctx, chunk)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return out, nil
}

// batchRequest is one /resolve_batch exchange of at most MaxBatch names under
// the retry policy, every attempt in a slot of its own (pace).
func (c *Client) batchRequest(ctx context.Context, names []string) ([]Resolution, error) {
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if !c.backoff(ctx, attempt) || !c.pace(ctx) {
			lastErr = ctx.Err()
			break
		}
		c.mu.Lock()
		c.attempts++
		c.mu.Unlock()
		out, retryable, err := c.batchOnce(ctx, names)
		if err == nil || !retryable {
			return out, err
		}
		c.mu.Lock()
		c.failures++
		c.mu.Unlock()
		lastErr = err
	}
	return nil, fmt.Errorf("%w after %d attempts: %v", ErrUnavailable, c.Retries+1, lastErr)
}

func (c *Client) batchOnce(ctx context.Context, names []string) ([]Resolution, bool, error) {
	body, err := json.Marshal(batchRequest{Names: names})
	if err != nil {
		return nil, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/resolve_batch", bytesReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var br batchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			return nil, false, fmt.Errorf("taxonomy: decode batch response: %w", err)
		}
		if len(br.Results) != len(names) {
			return nil, false, fmt.Errorf("taxonomy: batch returned %d results for %d names", len(br.Results), len(names))
		}
		out := make([]Resolution, len(br.Results))
		for i, w := range br.Results {
			out[i] = fromWire(w)
		}
		return out, false, nil
	case http.StatusServiceUnavailable:
		return nil, true, fmt.Errorf("taxonomy: authority returned %d", resp.StatusCode)
	default:
		return nil, false, fmt.Errorf("taxonomy: authority returned %d", resp.StatusCode)
	}
}

func (c *Client) once(ctx context.Context, name string) (Resolution, bool, error) {
	u := c.BaseURL + "/resolve?name=" + url.QueryEscape(name)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Resolution{}, false, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return Resolution{}, true, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNotFound:
		var w wireResolution
		if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
			return Resolution{}, false, fmt.Errorf("taxonomy: decode response: %w", err)
		}
		res := fromWire(w)
		if resp.StatusCode == http.StatusNotFound {
			return res, false, fmt.Errorf("%w: %q", ErrUnknownName, name)
		}
		return res, false, nil
	case http.StatusServiceUnavailable:
		return Resolution{}, true, fmt.Errorf("taxonomy: authority returned %d", resp.StatusCode)
	default:
		return Resolution{}, false, fmt.Errorf("taxonomy: authority returned %d", resp.StatusCode)
	}
}
