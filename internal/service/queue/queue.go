// Package queue is the job layer of the simulation service: bounded job
// admission, a registry for status lookup that keeps every unfinished
// job and a window of the most recently finished ones, and a per-job
// append-only event log that makes SSE progress streams lossless (see
// Job). It knows nothing about HTTP or simulations — the service's
// transport layer admits jobs and runs each one's body on its own
// goroutine, and the executor layer does the simulating.
package queue

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

var (
	// ErrFull rejects a submission when the queue is at capacity.
	ErrFull = errors.New("job queue full")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("service shutting down")
	// ErrExpired is wrapped by Get's error for a job the queue accepted
	// and has since forgotten: it finished, and jobs of RetainedPerSlot ×
	// depth runs between them finished after it.
	ErrExpired = errors.New("expired")
)

// RetainedPerSlot sizes the window of finished jobs in runs: a queue of
// depth d keeps every unfinished job plus the newest finished ones while
// they hold at most RetainedPerSlot × d runs (a job counts its runs, at
// least one, and the newest always stays). On the serve-warm benchmark
// (2 CPUs, 15 s windows, one-run jobs) peak RSS read ~28 MiB at 4 ×, ~32
// MiB at 16 × and ~45 MiB at 64 ×: 16 × keeps a finished job queryable
// four times as long as 4 × for ~3.5 MiB.
const RetainedPerSlot = 16

// Queue bounds the jobs accepted and not yet finished, and keeps them
// queryable together with the most recently finished ones; an older
// finished job is forgotten, and Get reports it expired. Counts covers
// every job ever accepted, forgotten ones included. Safe for concurrent
// use.
type Queue struct {
	mu sync.Mutex
	// jobs holds every unfinished job and every retained finished one.
	jobs map[string]*Job
	// finished is the window of retained finished jobs in finish order,
	// holding retained runs between them; keep bounds retained.
	finished   []*Job
	retained   int
	keep       int
	nextID     int
	accepted   int
	limit      int
	unfinished int
	tally      tally
	// idle is Waited on by Wait. Submit adds to it under mu and refuses
	// once closing, so no Add can race a Wait that follows Close.
	idle    sync.WaitGroup
	closing bool
}

// tally counts every job a queue accepted by state, and the runs they
// completed. A job moves itself under its own lock at each transition,
// before it logs the transition's events: a client that has seen a job
// finish sees it counted as finished.
type tally struct {
	mu       sync.Mutex
	byState  map[State]int
	runsDone uint64
}

// move counts one job leaving state from ("" for a new job) for to.
func (t *tally) move(from, to State) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from != "" {
		t.byState[from]--
	}
	t.byState[to]++
}

// ran counts one completed run.
func (t *tally) ran() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runsDone++
}

// New returns a queue holding at most depth unfinished jobs and keeping
// the most recently finished ones while they hold at most
// RetainedPerSlot × depth runs.
func New(depth int) *Queue {
	return &Queue{
		jobs:  make(map[string]*Job),
		keep:  RetainedPerSlot * depth,
		limit: depth,
		tally: tally{byState: make(map[State]int)},
	}
}

// NewID allocates a monotonically increasing job id.
func (q *Queue) NewID() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.nextID++
	return jobID(q.nextID)
}

// jobID renders the nth job id.
func jobID(n int) string { return fmt.Sprintf("j%06d", n) }

// issued reports whether id is one NewID has returned.
func (q *Queue) issued(id string) bool {
	digits, ok := strings.CutPrefix(id, "j")
	n, err := strconv.Atoi(digits)
	return ok && err == nil && n >= 1 && n <= q.nextID && jobID(n) == id
}

// Submit registers a job and counts it as unfinished until Done, or
// reports why it cannot (ErrFull, ErrClosed).
func (q *Queue) Submit(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closing {
		return ErrClosed
	}
	if q.unfinished >= q.limit {
		return ErrFull
	}
	q.unfinished++
	q.idle.Add(1)
	q.jobs[j.id] = j
	j.seq = q.accepted
	q.accepted++
	j.mu.Lock()
	j.tally = &q.tally
	q.tally.move("", j.state)
	j.mu.Unlock()
	return nil
}

// Done marks a submitted job finished, freeing its place. The job joins
// the window of finished jobs, and the jobs that finished longest ago
// leave it while it holds more runs than it keeps, all but the newest.
func (q *Queue) Done(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.unfinished--
	q.idle.Done()
	q.finished = append(q.finished, j)
	q.retained += max(j.runsTotal, 1) // runsTotal is set once, by NewJob
	for q.retained > q.keep && len(q.finished) > 1 {
		old := q.finished[0]
		q.finished[0] = nil
		q.finished = q.finished[1:]
		q.retained -= max(old.runsTotal, 1)
		delete(q.jobs, old.id)
	}
}

// Wait blocks until every submitted job is Done.
func (q *Queue) Wait() { q.idle.Wait() }

// Get looks a job up by id. The error wraps ErrExpired for a job the
// queue has forgotten: NewID issues ids in increasing order, so an
// issued id the queue no longer holds is one that expired. Any other
// miss is an unknown job.
func (q *Queue) Get(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok {
		return j, nil
	}
	if q.issued(id) {
		return nil, fmt.Errorf("job %q %w: only the newest finished jobs stay queryable; "+
			"resubmit the request, and the result store answers it without simulating", id, ErrExpired)
	}
	return nil, fmt.Errorf("unknown job %q", id)
}

// Jobs returns the jobs the queue keeps, unfinished and retained
// finished ones, in submission order.
func (q *Queue) Jobs() []*Job {
	q.mu.Lock()
	out := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, j)
	}
	q.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Counts returns how many of the jobs the queue ever accepted are in
// each state, keyed by state name (a state no job is in is absent), and
// the runs they completed between them. Forgetting a finished job
// changes neither.
func (q *Queue) Counts() (byState map[string]int, runsDone uint64) {
	t := &q.tally
	t.mu.Lock()
	defer t.mu.Unlock()
	byState = make(map[string]int)
	for _, s := range States {
		if n := t.byState[s]; n > 0 {
			byState[string(s)] = n
		}
	}
	return byState, t.runsDone
}

// Depth is the number of accepted jobs that have not finished.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.unfinished
}

// Close rejects further submissions; jobs already accepted still count
// until Done. It errors if called twice.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closing {
		return errors.New("queue: already closed")
	}
	q.closing = true
	return nil
}
