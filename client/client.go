// Package client is the Go client for the raccdd simulation service
// (cmd/raccdd): submit single runs or whole evaluation sweeps over HTTP,
// follow per-run progress as server-sent events, and fetch results as
// exactly the CSV a local sweep would produce.
//
//	c := client.New("http://localhost:8080")
//	st, _ := c.SubmitSweep(ctx, client.SweepRequest{Scale: 0.25})
//	st, _ = c.Wait(ctx, st.ID, func(e client.Event) { fmt.Println(e.Type) })
//	csv, _ := c.Result(ctx, st.ID)
//
// The wire types mirror docs/SERVICE.md; the package has no dependency on
// the simulator, so external tooling can vendor it cheaply.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one raccdd daemon. The zero value is not usable; create
// with New.
type Client struct {
	base string
	hc   *http.Client

	// retries/backoff configure WithRetry; retries == 0 (the default)
	// disables retrying entirely.
	retries int
	backoff time.Duration
}

// TraceHeader is the HTTP header carrying a request's trace ID. The
// daemon adopts an inbound ID (minting one otherwise), stamps it on its
// logs, job status and queue events, and echoes it on every response —
// so one ID follows a run from any client through a coordinator to the
// worker that executed it. (Redeclared from the server's internal obs
// package; this package stays dependency-free so it can be vendored.)
const TraceHeader = "X-Raccd-Trace"

type traceKey struct{}

// WithTraceID returns a context that makes every request issued under
// it carry id in the X-Raccd-Trace header. The fabric uses it to
// propagate the coordinator's trace to workers; callers may use it to
// stamp their own correlation IDs.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// traceFrom returns the context's trace ID, or "".
func traceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// setTrace stamps the context's trace ID (if any) onto an outbound
// request.
func setTrace(req *http.Request) {
	if id := traceFrom(req.Context()); id != "" {
		req.Header.Set(TraceHeader, id)
	}
}

// Option configures a Client at construction.
type Option func(*Client)

// WithRetry enables bounded retry with jittered exponential backoff on
// transient failures: HTTP 503 (the daemon's queue is full) and
// connection-level errors (refused, reset, DNS). retries is the number
// of re-attempts after the first try; base is the initial backoff
// (doubled per attempt, jittered ±50%, capped at 5s). Off by default
// because a resubmitted POST /v1/runs creates a second job — harmless
// (identical runs dedupe through the result store) but surprising for
// interactive use. The fabric coordinator turns it on so a briefly
// saturated worker does not fail a whole batch.
func WithRetry(retries int, base time.Duration) Option {
	return func(c *Client) {
		if retries < 0 {
			retries = 0
		}
		if base <= 0 {
			base = 100 * time.Millisecond
		}
		c.retries = retries
		c.backoff = base
	}
}

// WithHTTPClient substitutes the underlying *http.Client (custom
// transport, timeout policy).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8080"). The client reuses http.DefaultTransport;
// requests carry whatever deadline their context has.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// retryable reports whether an error is worth re-attempting: a 503 from
// the daemon (queue full) or a connection-level failure. Context
// cancellation is never retryable.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode == http.StatusServiceUnavailable
	}
	var urlErr *url.Error
	if errors.As(err, &urlErr) {
		return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	}
	return false
}

// withRetry runs op, re-attempting transient failures per the client's
// retry policy. With retries == 0 it is exactly one op() call.
func (c *Client) withRetry(ctx context.Context, op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || attempt >= c.retries || !retryable(err) || ctx.Err() != nil {
			return err
		}
		d := c.backoff << attempt
		if d > 5*time.Second {
			d = 5 * time.Second
		}
		// Jitter ±50% so a fleet of retrying clients doesn't re-stampede
		// the worker that just shed them.
		d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return err
		}
	}
}

// RunRequest is the body of POST /v1/runs. Workload accepts a bundled
// benchmark name, "synth:<spec>", or "trace:<path>" (resolved on the
// server). Zero values select the paper defaults (scale 1.0, directory
// ratio 1:1, fifo scheduler, validation on).
type RunRequest struct {
	Workload string  `json:"workload"`
	Scale    float64 `json:"scale,omitempty"`
	System   string  `json:"system"`
	// Machine selects the simulated chip geometry: a preset name
	// ("paper16", "m32", "m64") or a power-of-two core count ("32").
	// Empty selects the paper's 16-core machine.
	Machine      string  `json:"machine,omitempty"`
	DirRatio     int     `json:"dir_ratio,omitempty"`
	ADR          bool    `json:"adr,omitempty"`
	Scheduler    string  `json:"scheduler,omitempty"`
	SMTWays      int     `json:"smt_ways,omitempty"`
	NCRTLatency  uint64  `json:"ncrt_latency,omitempty"`
	NCRTEntries  int     `json:"ncrt_entries,omitempty"`
	WriteThrough bool    `json:"write_through,omitempty"`
	Contiguity   float64 `json:"contiguity,omitempty"`
	Validate     *bool   `json:"validate,omitempty"`
	// Core selects the core-timing model ("simple" when empty, or
	// "ooo"); PrefetchDegree arms a per-core delta prefetcher issuing
	// that many blocks per trained trigger, PrefetchDistance strides
	// ahead (0 → server default look-ahead). These change the simulated
	// machine and therefore the result and its cache key.
	Core             string `json:"core,omitempty"`
	PrefetchDegree   int    `json:"prefetch_degree,omitempty"`
	PrefetchDistance int    `json:"prefetch_distance,omitempty"`
}

// SweepRequest is the body of POST /v1/sweeps. Zero-value fields select
// the paper's evaluation defaults (all nine benchmarks, FullCoh/PT/RaCCD,
// ratios 1..256).
type SweepRequest struct {
	Workloads []string `json:"workloads,omitempty"`
	Systems   []string `json:"systems,omitempty"`
	Ratios    []int    `json:"ratios,omitempty"`
	ADR       bool     `json:"adr,omitempty"`
	// Machine selects the chip geometry for every run of the sweep
	// ("paper16" when empty; see RunRequest.Machine).
	Machine  string  `json:"machine,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Validate *bool   `json:"validate,omitempty"`
	// Core/PrefetchDegree/PrefetchDistance select the core-timing model
	// for every run of the sweep (see RunRequest.Core).
	Core             string `json:"core,omitempty"`
	PrefetchDegree   int    `json:"prefetch_degree,omitempty"`
	PrefetchDistance int    `json:"prefetch_distance,omitempty"`
}

// Status mirrors the service's job status JSON.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// TraceID is the trace of the request that submitted the job; quote
	// it when reporting a failure so the operator can grep every
	// process's log for the full story.
	TraceID   string    `json:"trace_id,omitempty"`
	RunsTotal int       `json:"runs_total"`
	RunsDone  int       `json:"runs_done"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Phases is the job's wall-time breakdown in seconds (queue_wait,
	// build, exec, store, fabric_rtt). Single-run jobs' phases tile the
	// job wall time; batch/sweep jobs accumulate concurrent runs.
	Phases    map[string]float64 `json:"phases,omitempty"`
	ResultURL string             `json:"result_url,omitempty"`
	EventsURL string             `json:"events_url"`
}

// Terminal reports whether the job has finished (done, failed or
// canceled).
func (s Status) Terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// Event is one frame of a job's SSE progress stream.
type Event struct {
	ID   int             `json:"id"`
	Type string          `json:"type"` // "status", "progress", "done", "error"
	Data json.RawMessage `json:"data"`
}

// Stats mirrors GET /v1/stats.
type Stats struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	QueueDepth    int            `json:"queue_depth"`
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
	// Prefetch totals across every simulation this server executed;
	// zero (and omitted) while no run armed a prefetcher.
	PrefetchIssued uint64 `json:"prefetch_issued,omitempty"`
	PrefetchUseful uint64 `json:"prefetch_useful,omitempty"`
	PrefetchLate   uint64 `json:"prefetch_late,omitempty"`
}

// ErrExpired matches, through errors.Is, the 404 a daemon answers for a
// job it has forgotten. A daemon keeps every unfinished job and only its
// most recently finished ones; the results of an older job are still in
// its result store, so resubmitting the same request returns them
// without simulating.
var ErrExpired = errors.New("raccdd: job expired")

// APIError is a non-2xx response decoded from the service's error JSON.
type APIError struct {
	StatusCode int
	Message    string
	// TraceID is the server's trace for the failed request (echoed in
	// the X-Raccd-Trace response header), included in Error() so users
	// can quote it when reporting a fleet failure.
	TraceID string
	// Expired is set on the 404 for a job the daemon has forgotten (the
	// body's "expired": true); errors.Is(err, ErrExpired) reports it.
	Expired bool
}

// Is reports an expired job's 404 as ErrExpired.
func (e *APIError) Is(target error) bool { return target == ErrExpired && e.Expired }

func (e *APIError) Error() string {
	if e.TraceID != "" {
		return fmt.Sprintf("raccdd: HTTP %d: %s (trace %s)", e.StatusCode, e.Message, e.TraceID)
	}
	return fmt.Sprintf("raccdd: HTTP %d: %s", e.StatusCode, e.Message)
}

// do issues a request and decodes the JSON response into out (when
// non-nil), converting error responses to *APIError. Transient failures
// are re-attempted per the client's retry policy.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	return c.withRetry(ctx, func() error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		setTrace(req)
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return decodeError(resp)
		}
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

func decodeError(resp *http.Response) error {
	var e struct {
		Error   string `json:"error"`
		Expired bool   `json:"expired"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if json.Unmarshal(data, &e) != nil || e.Error == "" {
		e.Error = strings.TrimSpace(string(data))
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Message:    e.Error,
		TraceID:    resp.Header.Get(TraceHeader),
		Expired:    e.Expired,
	}
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// ServerStats fetches /v1/stats.
func (c *Client) ServerStats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// SubmitRun queues one simulation and returns its job status.
func (c *Client) SubmitRun(ctx context.Context, req RunRequest) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodPost, "/v1/runs", req, &st)
	return st, err
}

// SubmitSweep queues an evaluation sweep and returns its job status.
func (c *Client) SubmitSweep(ctx context.Context, req SweepRequest) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &st)
	return st, err
}

// BatchRequest is the body of POST /v1/batch: an explicit list of runs
// executed as one job. One request can carry thousands of runs; the
// daemon validates every run up front, executes them (partitioned
// across its worker fleet when it is a coordinator), streams progress
// per completed run in deterministic submission-independent order, and
// serves one merged CSV — identical rows to submitting the runs one by
// one, sorted the way `sweep -csv` sorts them.
type BatchRequest struct {
	Runs []RunRequest `json:"runs"`
}

// SubmitBatch queues a batch of runs as one job and returns its status.
func (c *Client) SubmitBatch(ctx context.Context, req BatchRequest) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodPost, "/v1/batch", req, &st)
	return st, err
}

// Job fetches the status of a job. A job the daemon has forgotten
// answers an error that matches ErrExpired.
func (c *Client) Job(ctx context.Context, id string) (Status, error) {
	var st Status
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists the jobs the daemon keeps, in submission order: every
// unfinished job and its most recently finished ones.
func (c *Client) Jobs(ctx context.Context) ([]Status, error) {
	var out struct {
		Jobs []Status `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// Result fetches a finished job's CSV — byte-identical to the CSV a local
// `sweep -csv` of the same matrix would write. A job the daemon has
// forgotten answers an error that matches ErrExpired.
func (c *Client) Result(ctx context.Context, id string) (string, error) {
	var out string
	err := c.withRetry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/result", nil)
		if err != nil {
			return err
		}
		setTrace(req)
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return decodeError(resp)
		}
		data, err := io.ReadAll(resp.Body)
		out = string(data)
		return err
	})
	return out, err
}

// Events streams a job's progress events, invoking fn for each, starting
// after event id `after` (pass -1 for the full history). It returns when
// the job reaches a terminal state, fn returns an error, or ctx is
// cancelled.
func (c *Client) Events(ctx context.Context, id string, after int, fn func(Event) error) error {
	// Stream establishment retries transient failures; once frames flow,
	// a drop surfaces as an error so the caller can resume with ?after=.
	var resp *http.Response
	err := c.withRetry(ctx, func() error {
		url := fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", c.base, id, after)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", "text/event-stream")
		setTrace(req)
		if resp, err = c.hc.Do(req); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			err := decodeError(resp)
			resp.Body.Close()
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	// Frames are small: start from the scanner's default buffer and let
	// it grow, up to 1 MiB, only for an unusually long line.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var ev Event
	var haveEvent bool
	flush := func() error {
		if !haveEvent {
			return nil
		}
		e := ev
		ev, haveEvent = Event{}, false
		return fn(e)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.Atoi(line[4:]); err == nil {
				ev.ID = n
			}
			haveEvent = true
		case strings.HasPrefix(line, "event: "):
			ev.Type = line[7:]
			haveEvent = true
		case strings.HasPrefix(line, "data: "):
			ev.Data = json.RawMessage(line[6:])
			haveEvent = true
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// Wait follows the job's event stream until it finishes, invoking
// onEvent (which may be nil) for each event, and returns the final
// status: the one the terminal done/error event carries, so a finished
// job costs no further request. If the stream ends without one (it
// dropped, or an older daemon sent none) or is unavailable, Wait falls
// back to polling GET /v1/jobs/{id}; a job the daemon has forgotten
// meanwhile ends the poll with an error that matches ErrExpired.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(Event)) (Status, error) {
	var final *Status
	err := c.Events(ctx, id, -1, func(e Event) error {
		if onEvent != nil {
			onEvent(e)
		}
		if e.Type == "done" || e.Type == "error" {
			var p struct {
				Status *Status `json:"status"`
			}
			if json.Unmarshal(e.Data, &p) == nil && p.Status != nil && p.Status.Terminal() {
				final = p.Status
			}
		}
		return nil
	})
	if final != nil {
		return *final, nil
	}
	if err != nil && ctx.Err() != nil {
		return Status{}, err
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return Status{}, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
