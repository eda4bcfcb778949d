// Package service is the simulation-as-a-service layer behind cmd/raccdd,
// an HTTP transport assembled from three explicit layers:
//
//   - queue (internal/service/queue): bounded job admission plus the
//     per-job append-only event log that makes SSE streams lossless.
//   - exec (internal/service/exec): materializes wire requests into
//     checked sim.Configs and runs one simulation through the
//     content-addressed result store (*resultstore.Store, the same store
//     `sweep -cache` uses); owns the per-scheme and per-phase execution
//     counters.
//   - fabric (internal/service/fabric): the transport seam under every
//     run — a Backend executes a batch of runs in-process (Local) or on
//     another raccdd as one job (Remote), and a Coordinator partitions
//     runs across backends by rendezvous-hashing each run's
//     (fingerprint, workload identity) pair, so identical runs land on
//     one node and dedupe globally.
//
// Every job executes through the coordinator's Execute: a run is a
// batch of one spec, and a sweep expands into exactly the run list the
// equivalent batch would carry, so all three share one execution path,
// progress stream, phase breakdown and CSV. A plain daemon is the
// degenerate one-node fabric (a single Local backend). Started with
// Options.Workers it becomes a coordinator: each worker gets its share
// of a job's runs as one batch job, progress merges losslessly in run
// order, and the merged CSV is byte-identical to a local sweep's.
//
// API (see docs/SERVICE.md for the full spec):
//
//	GET  /healthz                  liveness + version
//	GET  /metrics                  Prometheus-format counters
//	GET  /v1/stats                 queue depth, cache hit rate, sims/sec
//	POST /v1/runs                  submit one simulation        → job
//	POST /v1/sweeps                submit an evaluation sweep   → job
//	POST /v1/batch                 submit an explicit run list  → job
//	GET  /v1/jobs                  list the jobs the queue keeps
//	GET  /v1/jobs/{id}             job status (404 once expired)
//	GET  /v1/jobs/{id}/events      SSE progress stream (?after=<id> resumes)
//	GET  /v1/jobs/{id}/result      result CSV (once done)
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"raccd/client"
	"raccd/internal/obs"
	"raccd/internal/resultstore"
	"raccd/internal/service/exec"
	"raccd/internal/service/fabric"
	"raccd/internal/service/queue"
)

// Version is reported by /healthz.
const Version = "1"

// The wire and job types are owned by the layers below; the aliases keep
// this package the one import a transport consumer needs.
type (
	// RunRequest is the body of POST /v1/runs (see client.RunRequest).
	RunRequest = client.RunRequest
	// SweepRequest is the body of POST /v1/sweeps (see client.SweepRequest).
	SweepRequest = client.SweepRequest
	// BatchRequest is the body of POST /v1/batch (see client.BatchRequest).
	BatchRequest = client.BatchRequest
	// State is a job's lifecycle position (see queue.State).
	State = queue.State
	// Status is the JSON shape of GET /v1/jobs/{id} (see queue.Status).
	Status = queue.Status
	// Event is one SSE frame of a job's progress stream (see queue.Event).
	Event = queue.Event
)

// Job states, re-exported from the queue layer.
const (
	StateQueued   = queue.StateQueued
	StateRunning  = queue.StateRunning
	StateDone     = queue.StateDone
	StateFailed   = queue.StateFailed
	StateCanceled = queue.StateCanceled
)

// The coordinator's retry policy toward its workers: a briefly saturated
// worker (503, connection refused) is re-attempted instead of failing the
// whole batch. Resubmitted runs are harmless — they dedupe through the
// worker's result store.
const (
	workerRetries = 3
	workerBackoff = 100 * time.Millisecond
)

// Options configures a Server.
type Options struct {
	// Store is the content-addressed result cache; required. The same
	// directory may back cmd/sweep -cache, so offline sweeps and served
	// runs share results.
	Store *resultstore.Store
	// InFlight bounds the simulations running at once in-process,
	// shared by every job (0 selects one per CPU, runtime.GOMAXPROCS). A
	// job's runs wait for these slots, and nothing else bounds them. A
	// coordinator simulates nothing: each of its jobs sends each worker
	// at most one worker job, so QueueDepth bounds the worker jobs it has
	// outstanding on a worker, and the worker's InFlight their runs.
	InFlight int
	// QueueDepth bounds the jobs accepted and not yet finished (default
	// 64); submissions beyond it are rejected with 503.
	QueueDepth int
	// MaxSweepRuns rejects sweeps and batches that expand to more
	// simulations than this (default 100000). It also bounds submission
	// bodies, at maxBodyPerRun bytes per run: larger bodies get 413.
	MaxSweepRuns int
	// Workers turns the daemon into a coordinator: every run is executed
	// on one of these raccdd base URLs instead of in-process, partitioned
	// by rendezvous hash. The URL is the backend's rendezvous name — keep
	// worker URLs stable across restarts and every coordinator maps the
	// same run to the same worker, which is what makes dedupe global.
	Workers []string
	// Logger receives the server's structured JSON log: one line per
	// HTTP request and per job transition, each stamped with the
	// request's trace ID (see docs/OBSERVABILITY.md). nil discards.
	Logger *slog.Logger
}

// Server implements the HTTP API. Create with New, serve s.Handler(),
// stop with Shutdown.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	start time.Time

	// runCtx cancels in-flight simulations on forced shutdown.
	runCtx    context.Context
	cancelRun context.CancelFunc

	q  *queue.Queue
	ex *exec.Executor
	// run executes admitted jobs on long-lived runners.
	run runners
	// coord executes every run: Remote backends over Options.Workers in
	// coordinator mode, a single in-process Local backend otherwise.
	coord *fabric.Coordinator

	log *slog.Logger
	// proberStop ends the backend health prober (coordinator mode only).
	proberStop chan struct{}
	proberDone chan struct{}
}

// New validates opts and returns a ready server.
func New(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, errors.New("service: Options.Store is required")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxSweepRuns <= 0 {
		opts.MaxSweepRuns = 100000
	}
	if opts.Logger == nil {
		opts.Logger = obs.Nop()
	}
	s := &Server{
		opts:  opts,
		mux:   http.NewServeMux(),
		start: time.Now(),
		q:     queue.New(opts.QueueDepth),
		ex:    exec.New(opts.Store),
		log:   opts.Logger,
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background()) //raccd:ctxlog-ok server-lifetime root context, cancelled by Close/drain — there is no caller ctx at construction

	var backends []fabric.Backend
	if len(opts.Workers) > 0 {
		for _, u := range opts.Workers {
			backends = append(backends, fabric.NewRemote(u, client.WithRetry(workerRetries, workerBackoff)))
		}
	} else {
		backends = append(backends, fabric.NewLocal("local", s.ex, opts.InFlight))
	}
	coord, err := fabric.NewCoordinator(backends)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.coord = coord

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("POST /v1/batch", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)

	if len(opts.Workers) > 0 {
		s.proberStop = make(chan struct{})
		s.proberDone = make(chan struct{})
		go s.probeLoop()
	}
	return s, nil
}

// Handler returns the API handler (mount it on any http.Server), wrapped
// in the observability middleware: every request gets a trace ID
// (accepted from X-Raccd-Trace or generated), a context logger, and one
// structured log line.
func (s *Server) Handler() http.Handler { return s.withObs(s.mux) }

// admit accepts j and hands body to a job runner: an idle one, or a new
// one when every runner is busy, so the job starts at once. The job
// counts against QueueDepth until it reaches its terminal state; runs
// inside it wait only for in-flight slots (Options.InFlight).
func (s *Server) admit(j *queue.Job, body func(*queue.Job) (string, error)) error {
	if err := s.q.Submit(j); err != nil {
		return err
	}
	s.log.Info("job accepted",
		"job", j.ID(), "trace", j.Trace(), "kind", j.Kind(),
		"runs", j.Status().RunsTotal, "queue_depth", s.q.Depth())
	s.run.run(func() { s.runJob(j, body) })
	return nil
}

// runJob executes an admitted job's body and records its outcome. The
// job's place frees as Finish moves it to its terminal state, before the
// terminal event is published; Done, after the "job finished" line, lets
// Shutdown's drain end.
func (s *Server) runJob(j *queue.Job, body func(*queue.Job) (string, error)) {
	defer s.q.Done(j)
	if err := s.runCtx.Err(); err != nil {
		j.Finish("", err)
		return
	}
	j.SetState(StateRunning, "")
	s.log.Info("job started", "job", j.ID(), "trace", j.Trace(), "kind", j.Kind())
	csv, err := s.executeJob(j, body)
	// Body has committed the job's result, which ends its phases. Observe
	// them before Finish publishes the terminal event, so a client that
	// has seen the job finish also sees them in /metrics.
	j.Commit()
	j.Phases().Each(s.ex.Metrics().ObservePhase)
	j.Finish(csv, err)
	s.logFinished(j)
}

// logFinished logs a job's terminal transition.
func (s *Server) logFinished(j *queue.Job) {
	st := j.Status()
	s.log.Info("job finished",
		"job", st.ID, "trace", st.TraceID, "kind", st.Kind, "state", string(st.State),
		"error", st.Error, "runs", st.RunsDone,
		"elapsed_ms", st.Finished.Sub(st.Created).Milliseconds())
}

// executeJob runs a job's body, converting a panic into a job failure so
// one bad request can never take the daemon (and every other job) down.
func (s *Server) executeJob(j *queue.Job, body func(*queue.Job) (string, error)) (csv string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return body(j)
}

// Shutdown drains the daemon: new submissions are rejected immediately,
// and every accepted job gets until ctx's deadline to finish. When the
// deadline passes, remaining jobs are cancelled — every simulation
// already in flight aborts at its next task dispatch (sim.RunContext),
// runs waiting for an in-flight slot never start, and jobs that have not
// started are marked canceled. Once the drain ends, the idle job runners
// stop. It returns nil on a clean drain, or ctx's error when the deadline
// forced cancellation.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.q.Close() != nil {
		return errors.New("service: already shut down")
	}
	if s.proberStop != nil {
		close(s.proberStop)
		<-s.proberDone
	}
	done := make(chan struct{})
	go func() {
		s.q.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelRun() // abort in-flight simulations
		<-done        // jobs observe cancellation promptly
	}
	s.cancelRun()
	s.run.stop()
	return err
}

// --- submission -----------------------------------------------------------

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, 1, &req) {
		return
	}
	spec, err := fabric.NewSpec(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, r, "run", []fabric.Spec{spec})
}

// jobCtx is the context a job's body runs under: the server's
// run context (cancelled on forced shutdown) carrying the job's trace
// ID, a job-scoped logger, and the job's phase accumulator for the
// layers below to fill in.
func (s *Server) jobCtx(j *queue.Job) context.Context {
	ctx := obs.WithTrace(s.runCtx, j.Trace())
	ctx = obs.WithLogger(ctx, s.log.With("trace", j.Trace(), "job", j.ID()))
	return obs.WithPhases(ctx, j.Phases())
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, s.opts.MaxSweepRuns, &req) {
		return
	}
	m, err := exec.BuildMatrix(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	runs := m.NumRuns()
	if runs == 0 {
		httpError(w, http.StatusBadRequest, errors.New("sweep expands to zero runs"))
		return
	}
	if runs > s.opts.MaxSweepRuns {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("sweep expands to %d runs, above the server's limit of %d", runs, s.opts.MaxSweepRuns))
		return
	}
	// A sweep is the batch of its matrix cells: the same specs, progress
	// lines, phases and CSV as POST /v1/batch with that run list.
	specs, err := fabric.SpecsFromMatrix(m, req.Machine)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, r, "sweep", specs)
}

// handleSubmitBatch accepts POST /v1/batch: an explicit run list
// executed as one job. Every run is validated up front — the batch is
// rejected whole on the first invalid run, so a 202 means every run will
// execute. The runs scatter across the fabric (the one Local backend on
// a plain daemon, the worker fleet on a coordinator), progress streams
// one line per completed run in deterministic batch order, and the
// result is one merged CSV with rows sorted exactly as `sweep -csv`
// sorts them. Duplicate runs in one batch cost one simulation (they
// dedupe through the result store) and collapse into one CSV row — the
// merged set is keyed by (workload, system, ratio, ADR).
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, s.opts.MaxSweepRuns, &req) {
		return
	}
	if len(req.Runs) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("batch contains zero runs"))
		return
	}
	if len(req.Runs) > s.opts.MaxSweepRuns {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d runs, above the server's limit of %d", len(req.Runs), s.opts.MaxSweepRuns))
		return
	}
	specs, err := fabric.NewSpecs(req.Runs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, r, "batch", specs)
}

// maxBodyPerRun is the body budget per run a submission may carry: a
// fully populated run request is a few hundred bytes of JSON. One
// maxBodyPerRun of slack on top covers a sweep's lists and whitespace.
const maxBodyPerRun = 1 << 10

// decodeBody decodes a submission's JSON body into v, reading at most
// what the endpoint's largest submission of runs runs can need. On
// failure it writes the response — 413 for an oversized body, 400 for
// a malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, runs int, v any) bool {
	limit := int64(runs+1) * maxBodyPerRun
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, fmt.Errorf("decoding request: %w", err))
	return false
}

// submit admits specs as one job of kind and writes the 202/503
// response. Every job has the same body — a run is a batch of one spec:
// the coordinator scatters the specs across its backends and the merged
// set renders as one CSV.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string, specs []fabric.Spec) {
	j := queue.NewJob(s.q.NewID(), kind, obs.Trace(r.Context()), len(specs))
	err := s.admit(j, func(j *queue.Job) (string, error) {
		set, err := s.coord.Execute(s.jobCtx(j), specs, j.Progress)
		if err != nil {
			return "", err
		}
		return set.CSV(), nil
	})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, j.Status())
}

// --- queries --------------------------------------------------------------

// lookup returns the job the request's path names, or answers 404: an
// unknown job, or one the queue has forgotten, whose body also carries
// "expired": true (resubmitting its request is a result-store hit).
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*queue.Job, bool) {
	j, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		body := map[string]any{"error": err.Error()}
		if errors.Is(err, queue.ErrExpired) {
			body["expired"] = true
		}
		writeJSON(w, http.StatusNotFound, body)
		return nil, false
	}
	return j, true
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.q.Jobs()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	csv, state, errMsg := j.Result()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, csv)
	case StateFailed:
		httpError(w, http.StatusInternalServerError, errors.New(errMsg))
	case StateCanceled:
		httpError(w, http.StatusGone, errors.New("job was canceled"))
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusConflict, fmt.Errorf("job is %s; result not ready", state))
	}
}

// handleEvents streams the job's event log as SSE: history first, then
// live appends, ending after the terminal event. ?after=<id> resumes past
// already-seen events. A stream that reaches a finished job ends without
// a flush of its own, so a job already finished when asked gets its
// whole stream in one write.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	// ResponseController sees through the middleware's writer wrapper
	// (via Unwrap) to the underlying Flusher.
	fl := http.NewResponseController(w)
	from := 0
	if after := r.URL.Query().Get("after"); after != "" {
		n, err := strconv.Atoi(after)
		if err != nil || n < -1 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad after=%q", after))
			return
		}
		from = n + 1
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	for {
		evs, more, finished := j.EventsSince(from)
		for _, e := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, e.Data)
		}
		from += len(evs)
		if finished {
			// A job's terminal events are logged under the lock that
			// makes it finished, so evs ended with them.
			return
		}
		if err := fl.Flush(); err != nil {
			// Streaming unsupported or the client hung up mid-write.
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// --- health and stats -----------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":      true,
		"version": Version,
		"uptime":  time.Since(s.start).Seconds(),
	})
}

// StatsSnapshot is the JSON shape of GET /v1/stats: expvar-style counters
// for dashboards and the CI smoke test.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	// Jobs and RunsCompleted count every job accepted since the daemon
	// started, including finished jobs it no longer keeps.
	Jobs          map[string]int `json:"jobs"`
	RunsCompleted uint64         `json:"runs_completed"`
	SimsRun       uint64         `json:"sims_run"`
	SimsPerSec    float64        `json:"sims_per_sec"`
	CacheHits     uint64         `json:"cache_hits"`
	CacheMisses   uint64         `json:"cache_misses"`
	CacheHitRate  float64        `json:"cache_hit_rate"`
	CacheBytes    uint64         `json:"cache_bytes"`
	CacheObjects  int            `json:"cache_objects"`
	CacheEvicted  uint64         `json:"cache_evictions"`
	// Prefetch totals summed over every simulation this server executed
	// (cache hits don't move them); zero and omitted while no run armed
	// a prefetcher via core/prefetch_degree request fields.
	PrefetchIssued uint64 `json:"prefetch_issued,omitempty"`
	PrefetchUseful uint64 `json:"prefetch_useful,omitempty"`
	PrefetchLate   uint64 `json:"prefetch_late,omitempty"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() StatsSnapshot {
	st := s.opts.Store.Stats()
	byState, runsDone := s.q.Counts()
	up := time.Since(s.start).Seconds()
	snap := StatsSnapshot{
		UptimeSeconds: up,
		QueueDepth:    s.q.Depth(),
		Jobs:          byState,
		RunsCompleted: runsDone,
		SimsRun:       st.Misses,
		CacheHits:     st.Hits + st.Coalesced,
		CacheMisses:   st.Misses,
		CacheHitRate:  st.HitRate(),
		CacheBytes:    st.Bytes,
		CacheObjects:  st.Objects,
		CacheEvicted:  st.Evictions,
	}
	if up > 0 {
		snap.SimsPerSec = float64(st.Misses) / up
	}
	pf := s.ex.Metrics().Prefetch()
	snap.PrefetchIssued, snap.PrefetchUseful, snap.PrefetchLate = pf.Issued, pf.Useful, pf.Late
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// --- helpers --------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error()})
}
