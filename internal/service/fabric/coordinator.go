package fabric

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"

	"raccd/client"
	"raccd/internal/obs"
	"raccd/internal/report"
	"raccd/internal/runner"
	"raccd/internal/sim"
)

// DefaultInFlight is the per-backend cap on concurrently dispatched
// runs when the coordinator is not told otherwise — the default for
// each remote worker: enough to keep a small worker's in-process slots
// (one per CPU) busy with runs waiting behind them, small enough not
// to flood its admission queue.
const DefaultInFlight = 4

// PickName returns the index of the name that wins the rendezvous hash
// for key: the argmax of h(name, key) over names (highest-random-weight
// hashing). Every caller with the same name list maps the same key to
// the same index, no coordination or shared state required; removing a
// name only remaps the keys that lived on it.
func PickName(key string, names []string) int {
	best, bestScore := 0, uint64(0)
	for i, name := range names {
		h := fnv.New64a()
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(key))
		s := h.Sum64()
		if i == 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// SpecsFromMatrix expands a sweep matrix into the fabric's run list:
// one spec per matrix cell, in matrix order, carrying the resolved
// scale, machine and core timing so every backend executes exactly what
// the caller asked for. Each cell is checked as NewSpec checks it, so
// the first invalid one (unknown workload, unrealizable ratio) is the
// error, and each workload's identity is resolved once for all its
// cells. machineName is the wire-level machine selector (the -machine
// flag / SweepRequest.Machine), passed through verbatim because it was
// already parsed into m.Machine. The specs fingerprint identically to the cells
// of an in-process report.Matrix sweep (both resolve through
// sim.Knobs), so a served sweep hits the same cache entries
// `sweep -cache` fills.
func SpecsFromMatrix(m report.Matrix, machineName string) ([]Spec, error) {
	keys := m.Keys()
	specs := make([]Spec, 0, len(keys))
	ids := identities{}
	for _, k := range keys {
		rr := client.RunRequest{
			Workload:         k.Workload,
			Scale:            m.Scale,
			System:           k.System.String(),
			Machine:          machineName,
			DirRatio:         k.Ratio,
			ADR:              k.ADR,
			Validate:         &m.Validate,
			Core:             m.Core,
			PrefetchDegree:   m.PrefetchDegree,
			PrefetchDistance: m.PrefetchDistance,
		}
		spec, err := ids.spec(rr)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// Coordinator fans runs out across backends, each run routed by
// rendezvous hash so identical runs dedupe on their home backend, and
// merges results and progress deterministically. Every run, single or
// part of a batch, holds one of its backend's in-flight slots while it
// executes.
type Coordinator struct {
	backends []Backend
	names    []string
	// sems holds each backend's in-flight slots.
	sems  []chan struct{}
	stats []backendStats
}

// backendStats is one backend's health and traffic counters, exported
// to /metrics as raccd_fabric_backend_{up,requests_total,errors_total}.
type backendStats struct {
	up       atomic.Bool
	requests atomic.Uint64
	errors   atomic.Uint64
}

// BackendStatus is one backend's row of Coordinator.BackendStatuses and
// Probe: its health (as of the last probe; requests don't flip it) and
// lifetime request/error tallies.
type BackendStatus struct {
	Name     string
	Up       bool
	Requests uint64
	Errors   uint64
	// Error is the last probe's failure, "" while up; only Probe fills
	// it in.
	Error string
}

// HealthChecker is implemented by backends that can be actively probed
// (Remote, via GET /healthz). Backends without it count as always up.
type HealthChecker interface {
	CheckHealth(ctx context.Context) error
}

// NewCoordinator builds a coordinator over backends, keeping at most
// perBackend runs in flight on each across all callers (<= 0 selects
// DefaultInFlight).
func NewCoordinator(backends []Backend, perBackend int) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("fabric: no backends")
	}
	if perBackend <= 0 {
		perBackend = DefaultInFlight
	}
	c := &Coordinator{
		backends: backends,
		names:    make([]string, len(backends)),
		sems:     make([]chan struct{}, len(backends)),
		stats:    make([]backendStats, len(backends)),
	}
	seen := make(map[string]bool, len(backends))
	for i, b := range backends {
		name := b.Name()
		if strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("fabric: backend %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("fabric: duplicate backend %q", name)
		}
		seen[name] = true
		c.names[i] = name
		c.sems[i] = make(chan struct{}, perBackend)
		c.stats[i].up.Store(true) // presumed healthy until a probe says otherwise
	}
	return c, nil
}

// RunSpec executes one spec on its rendezvous backend, counting the
// request and its outcome in the backend's stats. It is the single-run
// counterpart of Execute.
func (c *Coordinator) RunSpec(ctx context.Context, spec Spec) (csv string, progress []string, err error) {
	return c.runOn(ctx, c.Pick(spec.Key()), spec)
}

// runOn dispatches spec to backend bi once one of the backend's
// in-flight slots is free, and tallies the outcome. The wait for the
// slot is queueing, so it counts toward the job's queue_wait phase. The
// request counts as soon as it is made; context cancellation, while
// waiting for a slot or running, is not the backend's fault and leaves
// its error count alone.
func (c *Coordinator) runOn(ctx context.Context, bi int, spec Spec) (string, []string, error) {
	c.stats[bi].requests.Add(1)
	waited := obs.PhasesFrom(ctx).Start(obs.PhaseQueueWait)
	select {
	case c.sems[bi] <- struct{}{}:
	case <-ctx.Done():
		return "", nil, ctx.Err()
	}
	waited()
	defer func() { <-c.sems[bi] }()
	csv, lines, err := c.backends[bi].Run(ctx, spec)
	if err != nil && ctx.Err() == nil {
		c.stats[bi].errors.Add(1)
	}
	return csv, lines, err
}

// BackendStatuses snapshots every backend's health and counters in
// construction order.
func (c *Coordinator) BackendStatuses() []BackendStatus {
	out := make([]BackendStatus, len(c.backends))
	for i := range c.backends {
		out[i] = BackendStatus{
			Name:     c.names[i],
			Up:       c.stats[i].up.Load(),
			Requests: c.stats[i].requests.Load(),
			Errors:   c.stats[i].errors.Load(),
		}
	}
	return out
}

// probeTimeout bounds one backend's health check.
const probeTimeout = 2 * time.Second

// Probe health-checks every backend that implements HealthChecker,
// updates the up gauges, and returns the statuses. Backends without a
// checker (Local) are always up.
func (c *Coordinator) Probe(ctx context.Context) []BackendStatus {
	out := c.BackendStatuses()
	for i, b := range c.backends {
		hc, ok := b.(HealthChecker)
		if !ok {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		err := hc.CheckHealth(pctx)
		cancel()
		c.stats[i].up.Store(err == nil)
		out[i].Up = err == nil
		if err != nil {
			out[i].Error = err.Error()
		}
	}
	return out
}

// Pick returns the backend index the rendezvous hash homes key on.
func (c *Coordinator) Pick(key string) int { return PickName(key, c.names) }

// runOutcome carries one dispatched run back to the in-order committer.
type runOutcome struct {
	res   sim.Result
	lines []string
}

// Execute runs every spec across the backends and returns the merged
// result set. Runs dispatch concurrently (bounded per backend by the
// in-flight slots runOn takes), but
// results and progress commit strictly in spec order via the same
// in-order pool local sweeps use — so the progress stream is
// deterministic and lossless, and Set.CSV() of the returned set is
// byte-identical to a local sweep of the same runs. The first failed
// run cancels the rest and is returned.
func (c *Coordinator) Execute(ctx context.Context, specs []Spec, progress func(line string)) (*report.Set, error) {
	set := report.NewSet(nil)
	workers := len(c.backends) * cap(c.sems[0])
	err := runner.Run(ctx, workers, len(specs),
		func(ctx context.Context, i int) (runOutcome, error) {
			spec := specs[i]
			bi := c.Pick(spec.Key())
			csv, lines, err := c.runOn(ctx, bi, spec)
			if err != nil {
				return runOutcome{}, fmt.Errorf("fabric: run %d (%s): %w", i, spec.Key(), err)
			}
			res, err := parseRunCSV(csv)
			if err != nil {
				return runOutcome{}, fmt.Errorf("fabric: run %d from %s: %w", i, c.names[bi], err)
			}
			return runOutcome{res: res, lines: lines}, nil
		},
		func(i int, out runOutcome) {
			set.Add(out.res)
			if progress != nil {
				for _, line := range out.lines {
					progress(line)
				}
			}
		})
	if err != nil {
		return nil, err
	}
	return set, nil
}

// parseRunCSV decodes a backend's single-run CSV (header + one row).
func parseRunCSV(csv string) (sim.Result, error) {
	set, err := report.ParseCSV(strings.NewReader(csv))
	if err != nil {
		return sim.Result{}, err
	}
	results := set.Results()
	if len(results) != 1 {
		return sim.Result{}, fmt.Errorf("single-run CSV carried %d rows", len(results))
	}
	return results[0], nil
}
