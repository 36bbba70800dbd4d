package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// Options configures a Server.
type Options struct {
	// Workers is the job-execution concurrency (default 2).
	Workers int
	// QueueDepth bounds waiting jobs (default 64); past it, submissions
	// fail fast with 503.
	QueueDepth int
	// CacheEntries bounds the result cache (default 256 entries).
	CacheEntries int
	// MetricSamples bounds retained per-record counter samples
	// (default 4096).
	MetricSamples int
}

func (o Options) norm() Options {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.MetricSamples == 0 {
		o.MetricSamples = 4096
	}
	return o
}

// Server is the lcmd HTTP service: a job queue over the harness, a
// content-addressed result cache, and the /metrics registry.
type Server struct {
	queue *Queue
	cache *Cache
	reg   *Registry
	stats *JobStats
	mux   *http.ServeMux

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for GET /jobs
	nextID int

	draining atomic.Bool

	// beforeRun, when non-nil, is invoked at the start of every executed
	// job; tests use it to hold a worker mid-job deterministically.
	beforeRun func(*Job)
}

// New creates a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.norm()
	s := &Server{
		cache: NewCache(opts.CacheEntries),
		reg:   NewRegistry(),
		stats: NewJobStats(opts.MetricSamples),
		jobs:  make(map[string]*Job),
	}
	s.queue = NewQueue(opts.Workers, opts.QueueDepth, s.execute)
	s.reg.Register(
		tempestCollector{s.stats},
		netCollector{s.stats},
		schedCollector{s.stats},
		queueCollector{s},
	)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /cache/stats", s.handleCacheStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the job layer down: new submissions get 503,
// queued jobs are cancelled with a structured terminal progress event,
// and Drain blocks until running jobs finish.  The HTTP listener is the
// caller's to close afterwards (progress streams end on their own once
// every job is terminal).
func (s *Server) Drain() {
	s.draining.Store(true)
	s.queue.Drain()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) jobsInState(st State) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.State() == st {
			n++
		}
	}
	return n
}

// submitResponse is the wire shape of POST /jobs.
type submitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Cache is "hit" when the result was served from the content-
	// addressed cache without running, "miss" when the job will run and
	// populate it.
	Cache string `json:"cache,omitempty"`
	Key   string `json:"key,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining: not accepting jobs")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	key := spec.CacheKey()

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%d", s.nextID)
	s.mu.Unlock()
	j := newJob(id, spec, key)

	if body, ok := s.cache.Get(key); ok {
		// Served bit-identically from the content-addressed cache:
		// the job is born done, no queue slot consumed.
		s.register(j)
		j.finish(body, "hit", 0)
		writeJSON(w, http.StatusOK, submitResponse{ID: j.ID, State: j.State(), Cache: "hit", Key: key})
		return
	}
	if err := s.queue.Submit(j); err != nil {
		code := http.StatusServiceUnavailable
		if errors.Is(err, ErrQueueFull) {
			writeError(w, code, "job queue full (%d waiting)", s.queue.Depth())
		} else {
			writeError(w, code, "%v", err)
		}
		return
	}
	s.register(j)
	writeJSON(w, http.StatusAccepted, submitResponse{ID: j.ID, State: j.State(), Cache: "miss", Key: key})
}

func (s *Server) register(j *Job) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]status, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.job(id); ok {
			out = append(out, j.status())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleProgress streams the job's event log as NDJSON until the job
// reaches a terminal state; late subscribers replay the retained log
// first, so a client can always read a complete stream.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for from := 0; ; {
		evs, final := j.eventsFrom(from)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return // client gone
			}
		}
		from += len(evs)
		if final {
			// Unflushed, a finished job's whole stream goes out in the
			// one write that ends the response.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	body, cache, ok := j.Result()
	if !ok {
		st := j.status()
		if st.State.Terminal() {
			writeError(w, http.StatusGone, "job %s %s: %s", j.ID, st.State, st.Error)
			return
		}
		writeError(w, http.StatusConflict, "job %s still %s; stream /jobs/%s/progress", j.ID, st.State, j.ID)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if cache != "" {
		w.Header().Set("X-Lcmd-Cache", cache)
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}
