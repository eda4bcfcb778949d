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
}

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

// each calls fn for every bucket that was added to.
func (p *Phases) each(fn func(name string, d time.Duration)) {
	for i, name := range phaseNames {
		if p.set[i].Load() {
			fn(name, time.Duration(p.ns[i].Load()))
		}
	}
}

// Durations returns a snapshot of the buckets, nil when empty.
func (p *Phases) Durations() map[string]time.Duration {
	if p == nil {
		return nil
	}
	var out map[string]time.Duration
	p.each(func(name string, d time.Duration) {
		if out == nil {
			out = make(map[string]time.Duration, len(phaseNames))
		}
		out[name] = d
	})
	return out
}

// Seconds returns the buckets converted to seconds — the wire form
// used by GET /v1/jobs/{id} — nil when empty.
func (p *Phases) Seconds() map[string]float64 {
	if p == nil {
		return nil
	}
	var out map[string]float64
	p.each(func(name string, d time.Duration) {
		if out == nil {
			out = make(map[string]float64, len(phaseNames))
		}
		out[name] = d.Seconds()
	})
	return out
}
