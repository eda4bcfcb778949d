package queue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"raccd/internal/obs"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: accepted, not yet started.
	StateQueued State = "queued"
	// StateRunning: simulations in flight.
	StateRunning State = "running"
	// StateDone: finished, result available.
	StateDone State = "done"
	// StateFailed: finished with an error.
	StateFailed State = "failed"
	// StateCanceled: the daemon shut down before or while running it.
	StateCanceled State = "canceled"
)

// States lists every job state in lifecycle order.
var States = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one SSE frame of a job's progress stream. ID is the event's
// index in the job's log (SSE "id:" field), so clients can resume a
// dropped stream with ?after=<id>.
type Event struct {
	ID   int             `json:"id"`
	Type string          `json:"type"` // "status", "progress", "done", "error"
	Data json.RawMessage `json:"data"`
}

// Status is the JSON shape of GET /v1/jobs/{id}.
type Status struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"` // "run", "sweep" or "batch"
	State     State     `json:"state"`
	Error     string    `json:"error,omitempty"`
	TraceID   string    `json:"trace_id,omitempty"`
	RunsTotal int       `json:"runs_total"`
	RunsDone  int       `json:"runs_done"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Phases is the job's wall-time breakdown in seconds, keyed by the
	// obs.Phase* names. For single-run jobs the parts tile the job's
	// wall time; batch/sweep jobs accumulate concurrent runs, so the
	// sum can exceed it.
	Phases    map[string]float64 `json:"phases,omitempty"`
	ResultURL string             `json:"result_url,omitempty"`
	EventsURL string             `json:"events_url"`
}

// Job is one queued unit of work: a single run, a whole sweep, or a
// batch of runs. Its event log is append-only; subscribers replay it
// from any index and block on the notify channel for more, so an SSE
// stream is lossless regardless of when the client connects.
type Job struct {
	id    string
	kind  string
	trace string
	// seq is the job's place in its queue's submission order.
	seq int
	// phases accumulates the job's wall-time breakdown; the exec and
	// fabric layers reach it through the job context.
	phases obs.Phases

	mu        sync.Mutex
	state     State
	err       string
	csv       string
	runsTotal int
	runsDone  int
	created   time.Time
	started   time.Time
	finished  time.Time
	events    []Event
	notify    chan struct{}
	// tally is the counter set of the queue that accepted the job (nil
	// before Submit); the job moves itself in it at every transition.
	tally *tally
}

// NewJob creates a queued job with its first status event logged.
// trace is the submitting request's trace ID ("" outside a traced
// request); it is stamped on every event the job emits.
func NewJob(id, kind, trace string, runsTotal int) *Job {
	j := &Job{
		id:        id,
		kind:      kind,
		trace:     trace,
		state:     StateQueued,
		runsTotal: runsTotal,
		created:   time.Now(),
		notify:    make(chan struct{}),
	}
	j.appendLocked("status", map[string]any{"state": StateQueued})
	return j
}

// ID returns the job's queue-assigned identifier.
func (j *Job) ID() string { return j.id }

// Kind returns the job's kind: "run", "sweep" or "batch".
func (j *Job) Kind() string { return j.kind }

// Trace returns the trace ID of the request that submitted the job.
func (j *Job) Trace() string { return j.trace }

// Phases returns the job's wall-time phase accumulator.
func (j *Job) Phases() *obs.Phases { return &j.phases }

// mustJSON marshals values the service itself constructs; a failure is a
// programming error.
func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("queue: encoding event: %v", err))
	}
	return b
}

// appendLocked appends an event and wakes all subscribers; the caller
// holds j.mu (or owns j outright). The job's trace ID is injected into
// the payload (SSE writes only the id/event/data lines, so the trace
// must live inside data to reach the wire). The notify channel is
// closed and replaced on every append (broadcast).
func (j *Job) appendLocked(typ string, data map[string]any) {
	if j.trace != "" {
		data["trace"] = j.trace
	}
	j.events = append(j.events, Event{ID: len(j.events), Type: typ, Data: mustJSON(data)})
	close(j.notify)
	j.notify = make(chan struct{})
}

// SetState transitions the job and logs a status event. Entering
// StateRunning begins the job's phases (obs.Phases.Begin). A terminal
// state also logs its done/error event, whose payload carries
// the final Status under "status", so a subscriber learns the outcome
// without asking GET /v1/jobs/{id}. The state and its events change
// under one lock: a subscriber that sees the job finished has already
// been handed its terminal event.
func (j *Job) SetState(s State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.tally != nil {
		j.tally.move(j.state, s)
	}
	j.state = s
	now := time.Now()
	switch s {
	case StateRunning:
		j.started = now
		j.phases.Begin(j.created, now)
	case StateDone, StateFailed, StateCanceled:
		if j.finished.IsZero() {
			j.finished = now
		}
	}
	if errMsg != "" {
		j.err = errMsg
	}
	j.appendLocked("status", map[string]any{"state": s})
	switch s {
	case StateDone:
		j.appendLocked("done", map[string]any{"result_url": "/v1/jobs/" + j.id + "/result", "status": j.statusLocked()})
	case StateFailed:
		j.appendLocked("error", map[string]any{"error": errMsg, "status": j.statusLocked()})
	case StateCanceled:
		j.appendLocked("error", map[string]any{"error": "job canceled: daemon shutting down", "status": j.statusLocked()})
	}
}

// Commit marks the job's result committed: that ends its phases
// (obs.Phases.Committed) and is its finish time, however long Finish
// then takes to publish the outcome.
func (j *Job) Commit() {
	now := time.Now()
	j.phases.Committed(now)
	j.mu.Lock()
	j.finished = now
	j.mu.Unlock()
}

// Finish records the outcome of the job's body: the CSV on success, a
// canceled state when the error is the context's, a failed state
// otherwise.
func (j *Job) Finish(csv string, err error) {
	j.mu.Lock()
	if err == nil {
		j.csv = csv
	}
	j.mu.Unlock()
	switch {
	case err == nil:
		j.SetState(StateDone, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.SetState(StateCanceled, "")
	default:
		j.SetState(StateFailed, err.Error())
	}
}

// Progress logs one completed run.
func (j *Job) Progress(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.tally != nil {
		j.tally.ran()
	}
	j.runsDone++
	j.appendLocked("progress", map[string]any{"index": j.runsDone - 1, "line": line})
}

// EventsSince returns the log tail from index from, the channel that will
// be closed on the next append, and whether the job is finished.
func (j *Job) EventsSince(from int) (evs []Event, more <-chan struct{}, finished bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = j.events[from:]
	}
	return evs, j.notify, j.state.Terminal()
}

// Status snapshots the job for the JSON API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is Status for a caller holding j.mu.
func (j *Job) statusLocked() Status {
	st := Status{
		ID:        j.id,
		Kind:      j.kind,
		State:     j.state,
		Error:     j.err,
		TraceID:   j.trace,
		Phases:    j.phases.Seconds(),
		RunsTotal: j.runsTotal,
		RunsDone:  j.runsDone,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		EventsURL: "/v1/jobs/" + j.id + "/events",
	}
	if j.state == StateDone {
		st.ResultURL = "/v1/jobs/" + j.id + "/result"
	}
	return st
}

// Result returns the CSV once done, alongside the state and error.
func (j *Job) Result() (csv string, state State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.csv, j.state, j.err
}
