package service

import "sync"

// runners executes admitted jobs on long-lived goroutines. A job's
// goroutine grows its stack to what serving the job needs; a runner keeps
// that stack from one job to the next, where a fresh goroutine per job
// grew it again every time. An idle runner takes the next job, and a new
// runner starts only when none is idle, so there are never more runners
// than jobs have run at once. The zero value is ready to use.
type runners struct {
	mu sync.Mutex
	// idle holds the hand-off channel of every idle runner, the most
	// recently idle last; each has room for the one job it is handed.
	idle    []chan func()
	started int // runners started, stopped ones included (read by tests)
	stopped bool
	live    sync.WaitGroup
}

// run executes job on an idle runner, or on a new one when none is idle.
// It must not be called after stop.
func (r *runners) run(job func()) {
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		c := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		c <- job
		return
	}
	r.started++
	r.live.Add(1)
	r.mu.Unlock()
	go r.loop(job)
}

// loop is one runner: it executes its first job, then every job handed
// to it while idle, until stop closes its channel.
func (r *runners) loop(job func()) {
	defer r.live.Done()
	c := make(chan func(), 1)
	for {
		job()
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		r.idle = append(r.idle, c)
		r.mu.Unlock()
		var ok bool
		if job, ok = <-c; !ok {
			return
		}
	}
}

// stop ends every runner once it is idle and waits until all have
// returned. The caller must have seen every job it handed out finish.
func (r *runners) stop() {
	r.mu.Lock()
	r.stopped = true
	for _, c := range r.idle {
		close(c)
	}
	r.idle = nil
	r.mu.Unlock()
	r.live.Wait()
}
