package fabric

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raccd/client"
	"raccd/internal/report"
	"raccd/internal/runner"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

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
// one spec per matrix cell, in matrix order, carrying the scale, machine
// and core timing. Each cell is checked as NewSpec checks it, and each
// workload resolved once for all its cells. machineName is the
// wire-level machine selector (SweepRequest.Machine), passed on verbatim
// since m.Machine holds it parsed. The specs fingerprint as the cells of
// an in-process report.Matrix sweep do (both resolve through sim.Knobs),
// so a served sweep hits the cache entries `sweep -cache` fills.
func SpecsFromMatrix(m report.Matrix, machineName string) ([]Spec, error) {
	keys := m.Keys()
	specs := make([]Spec, 0, len(keys))
	ids := new(workloads.Identities)
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
		spec, err := newSpec(rr, ids)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// Coordinator fans runs out across backends, each run routed by
// rendezvous hash so identical runs dedupe on their home backend, and
// merges results and progress deterministically.
type Coordinator struct {
	backends []Backend
	names    []string
	stats    []backendStats
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

// NewCoordinator builds a coordinator over backends.
func NewCoordinator(backends []Backend) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("fabric: no backends")
	}
	c := &Coordinator{
		backends: backends,
		names:    make([]string, len(backends)),
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
		c.stats[i].up.Store(true) // presumed healthy until a probe says otherwise
	}
	return c, nil
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

// Execute runs every spec across the backends, each home's specs as one
// batch, and returns the merged set. Progress lines commit in spec order
// as they arrive and results join the set in spec order (of runs that
// share a row key the last is kept), so Set.CSV() is byte-identical to
// a local sweep's. A dispatch counts its runs as its backend's requests,
// and as errors if it fails other than by cancellation. The first
// failed dispatch cancels the others and its error is returned.
func (c *Coordinator) Execute(ctx context.Context, specs []Spec, progress func(line string)) (*report.Set, error) {
	// groups[bi] lists the specs homed on backend bi, and homes the
	// backends with specs, so a job homed on one backend (every
	// single-run job) dispatches on the caller's goroutine.
	groups := make([][]int, len(c.backends))
	var homes []int
	for i, s := range specs {
		bi := c.Pick(s.Key())
		if groups[bi] == nil {
			homes = append(homes, bi)
		}
		groups[bi] = append(groups[bi], i)
	}

	// commit takes spec i's line and commits the lines ready in order.
	var mu sync.Mutex
	lines, next := make([]string, len(specs)), 0
	commit := func(i int, line string) {
		mu.Lock()
		defer mu.Unlock()
		for lines[i] = line; next < len(specs) && lines[next] != ""; next++ {
			if progress != nil {
				progress(lines[next])
			}
		}
	}

	results := make([]sim.Result, len(specs))
	err := runner.Run(ctx, len(homes), len(homes),
		func(ctx context.Context, h int) ([]sim.Result, error) {
			bi := homes[h]
			idx := groups[bi]
			batch := make([]Spec, len(idx))
			for k, i := range idx {
				batch[k] = specs[i]
			}
			c.stats[bi].requests.Add(uint64(len(idx)))
			res, err := c.backends[bi].Run(ctx, batch, func(k int, line string) { commit(idx[k], line) })
			if err != nil && ctx.Err() == nil {
				c.stats[bi].errors.Add(uint64(len(idx)))
			}
			return res, err
		},
		func(h int, res []sim.Result) {
			for k, i := range groups[homes[h]] {
				results[i] = res[k]
			}
		})
	if err != nil {
		return nil, err
	}
	return report.NewSet(results), nil
}
