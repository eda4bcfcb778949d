// Package queue is the job layer of the simulation service: bounded job
// admission, a registry for status lookup, and a per-job append-only
// event log that makes SSE progress streams lossless (see Job). It
// knows nothing about HTTP or simulations — the service's transport
// layer admits jobs and runs each one's body on its own goroutine, and
// the executor layer does the simulating.
package queue

import (
	"errors"
	"fmt"
	"sync"
)

var (
	// ErrFull rejects a submission when the queue is at capacity.
	ErrFull = errors.New("job queue full")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("service shutting down")
)

// Queue bounds the jobs accepted and not yet finished, and registers
// every job ever accepted (running and finished jobs stay queryable).
// Safe for concurrent use.
type Queue struct {
	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string
	nextID     int
	limit      int
	unfinished int
	// idle is Waited on by Wait. Submit adds to it under mu and refuses
	// once closing, so no Add can race a Wait that follows Close.
	idle    sync.WaitGroup
	closing bool
}

// New returns a queue holding at most depth unfinished jobs.
func New(depth int) *Queue {
	return &Queue{
		jobs:  make(map[string]*Job),
		limit: depth,
	}
}

// NewID allocates a monotonically increasing job id.
func (q *Queue) NewID() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.nextID++
	return fmt.Sprintf("j%06d", q.nextID)
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
	q.order = append(q.order, j.id)
	return nil
}

// Done marks one submitted job finished, freeing its place.
func (q *Queue) Done() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.unfinished--
	q.idle.Done()
}

// Wait blocks until every submitted job is Done.
func (q *Queue) Wait() { q.idle.Wait() }

// Get looks a job up by id.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Jobs returns every accepted job in submission order.
func (q *Queue) Jobs() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, len(q.order))
	for i, id := range q.order {
		out[i] = q.jobs[id]
	}
	return out
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
