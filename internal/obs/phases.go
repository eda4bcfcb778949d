package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// phaseNames lists the canonical phases in bucket order.
var phaseNames = [...]string{PhaseQueueWait, PhaseBuild, PhaseExec, PhaseStore, PhaseFabric}

// Phases accumulates the canonical wall-time buckets (the Phase* names)
// for one job. Each bucket is one atomic counter, so it is safe for
// concurrent use (batch jobs run many backends at once) without a lock.
// The zero value is ready to use, and all methods are no-ops on a nil
// receiver, so unattached code paths cost one pointer test. Naming a
// phase outside the canonical set is a programming error and panics.
type Phases struct {
	ns [len(phaseNames)]atomic.Int64
	// set marks the buckets that were ever added to, so a phase timed
	// at zero is still reported while an untouched one is not.
	set [len(phaseNames)]atomic.Bool
	// began is when the job started running, until its first run's wait
	// consumes it, and ran when a run's result last came back, in ns
	// since origin (0: not set). Integers keep Ran from allocating, and
	// so from a GC assist right after a simulation.
	began, ran atomic.Int64
}

// origin anchors the instants Phases keeps.
var origin = time.Now()

// bucket maps a canonical phase name to its index.
func bucket(name string) int {
	for i, n := range phaseNames {
		if n == name {
			return i
		}
	}
	panic(fmt.Sprintf("obs: unknown phase %q", name))
}

// Add folds d into the named bucket. Negative durations are ignored so
// a clock step can never produce a negative phase.
func (p *Phases) Add(name string, d time.Duration) {
	if p == nil || d < 0 {
		return
	}
	i := bucket(name)
	p.ns[i].Add(int64(d))
	p.set[i].Store(true)
}

// Start begins timing the named phase and returns the function that
// stops it, for use as `defer p.Start(obs.PhaseExec)()`.
func (p *Phases) Start(name string) func() {
	if p == nil {
		return func() {}
	}
	bucket(name) // fail at the call site, not when the phase ends
	t0 := time.Now()
	return func() { p.Add(name, time.Since(t0)) }
}

// Begin records that the job, accepted at created, started running at
// now: the time in between is queue_wait, and so is the wait of the
// job's first run from now until it holds its slot (Waited).
func (p *Phases) Begin(created, now time.Time) {
	if p != nil {
		p.began.Store(int64(now.Sub(origin)))
		p.Add(PhaseQueueWait, now.Sub(created))
	}
}

// Waited adds the wait of a run that began waiting at t0 and now holds
// its slot to queue_wait. The job's first wait counts from Begin
// instead, so the hand-offs between the job's start and its first run
// count as waiting; every later run counts only its own wait, not the
// runs that went before it.
func (p *Phases) Waited(t0 time.Time) {
	if p == nil {
		return
	}
	now := time.Now()
	if b := p.began.Swap(0); b != 0 {
		p.Add(PhaseQueueWait, now.Sub(origin)-time.Duration(b))
		return
	}
	p.Add(PhaseQueueWait, now.Sub(t0))
}

// Ran records that a run's result came back: the time from the latest
// Ran until the job commits its result (Committed) is store.
func (p *Phases) Ran() {
	if p != nil {
		p.ran.Store(int64(time.Since(origin)))
	}
}

// Committed adds the time from the latest Ran to now to store.
func (p *Phases) Committed(now time.Time) {
	if p == nil {
		return
	}
	if t := p.ran.Load(); t != 0 {
		p.Add(PhaseStore, now.Sub(origin)-time.Duration(t))
	}
}

// Each calls fn for every bucket that was added to, in bucket order.
func (p *Phases) Each(fn func(name string, d time.Duration)) {
	if p == nil {
		return
	}
	for i, name := range phaseNames {
		if p.set[i].Load() {
			fn(name, time.Duration(p.ns[i].Load()))
		}
	}
}

// Seconds returns the buckets converted to seconds — the wire form
// used by GET /v1/jobs/{id} — nil when empty.
func (p *Phases) Seconds() map[string]float64 {
	if p == nil {
		return nil
	}
	var out map[string]float64
	p.Each(func(name string, d time.Duration) {
		if out == nil {
			out = make(map[string]float64, len(phaseNames))
		}
		out[name] = d.Seconds()
	})
	return out
}
