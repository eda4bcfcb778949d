package report

import (
	"context"
	"fmt"
	"time"

	"raccd/internal/coherence"
	"raccd/internal/machine"
	"raccd/internal/resultstore"
	"raccd/internal/runner"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

// Matrix describes a full evaluation sweep: which benchmarks, systems and
// directory ratios to run, at which problem scale.
type Matrix struct {
	Workloads []string
	Systems   []coherence.Mode
	Ratios    []int
	// ADR adds RaCCD+ADR (and PT+ADR if PT is in Systems) runs at 1:1.
	ADR   bool
	Scale float64
	// Machine selects the simulated chip geometry for every run of the
	// sweep; the zero value is the paper's 16-core machine. Use
	// RunMachinesContext to sweep the same matrix across several machines.
	Machine machine.Machine
	// Validate enables golden-memory and invariant checking on every run.
	Validate bool
	// Jobs is the number of simulations run concurrently: 0 selects one
	// per CPU, 1 runs strictly sequentially. Results are committed in
	// matrix order either way, so figures, CSV output and the Progress
	// stream are identical for every Jobs value.
	Jobs int
	// Progress, if non-nil, receives a line per completed run, in matrix
	// order; calls are serialized, never concurrent.
	Progress func(msg string)
	// Cache, if non-nil, memoizes simulations in a content-addressed
	// result store: each run is keyed by (Config.Fingerprint, workload
	// identity) and served from the store when present, simulated and
	// stored otherwise. Figures, CSV and Progress output are byte-
	// identical with or without a cache, warm or cold.
	// *resultstore.Store is the canonical implementation.
	Cache Cache
	// Core, PrefetchDegree and PrefetchDistance override the machine's
	// core-timing knobs for every run of the sweep (empty/zero leaves the
	// Machine's own setting in place). They live on the Matrix — not only
	// on Machine — so a cross-machine sweep (RunMachinesContext replaces
	// the Machine per set) keeps the same core model on every geometry.
	Core             string
	PrefetchDegree   int
	PrefetchDistance int
	// OnSimulated, if non-nil, is called once per simulation actually
	// executed (cache hits do not fire it) with the run's coherence
	// scheme, wall-clock duration, and Result (for counter aggregation —
	// e.g. prefetch totals). Calls may be concurrent when Jobs > 1; the
	// hook must be safe for that. The leading string is always "": it is
	// kept only so the benchmark module in bench/, which cannot change in
	// step with this package, still compiles.
	OnSimulated func(_ string, system coherence.Mode, elapsed time.Duration, res sim.Result)
}

// Cache is the memoization seam of a Matrix: the subset of
// *resultstore.Store a sweep needs. internal/service/store narrows the
// full store to the same shape for the serving layers.
type Cache interface {
	GetOrCompute(key resultstore.Key, compute func() (sim.Result, error)) (sim.Result, bool, error)
}

// DefaultMatrix is the paper's full evaluation at the scaled problem sizes.
func DefaultMatrix() Matrix {
	return Matrix{
		Workloads: workloads.PaperSet(),
		Systems:   Systems,
		Ratios:    Ratios,
		ADR:       true,
		Scale:     1.0,
		Validate:  true,
	}
}

// runSpec identifies one simulation of a sweep.
type runSpec struct {
	name  string
	sys   coherence.Mode
	ratio int
	adr   bool
}

func (s runSpec) tag() string {
	if s.adr {
		return "+ADR"
	}
	return ""
}

func (s runSpec) String() string {
	return fmt.Sprintf("%s/%v%s 1:%d", s.name, s.sys, s.tag(), s.ratio)
}

// specs expands the matrix into its run list, in the order the results
// are reported.
func (m Matrix) specs() []runSpec {
	var out []runSpec
	for _, name := range m.Workloads {
		for _, sys := range m.Systems {
			for _, ratio := range m.Ratios {
				out = append(out, runSpec{name, sys, ratio, false})
			}
			if m.ADR && sys != coherence.FullCoh {
				out = append(out, runSpec{name, sys, 1, true})
			}
		}
	}
	return out
}

// simulate runs one simulation of the sweep, or recalls it from m.Cache
// when a store is attached: the run is keyed by (cfg.Fingerprint,
// workloads.Identity) and computed at most once per key.
func (m Matrix) simulate(cfg sim.Config, name string) (sim.Result, error) {
	run := func() (sim.Result, error) {
		w, err := workloads.Get(name, m.Scale)
		if err != nil {
			return sim.Result{}, err
		}
		start := time.Now()
		res, err := sim.Run(w, cfg)
		if err == nil && m.OnSimulated != nil {
			m.OnSimulated("", cfg.System, time.Since(start), res)
		}
		return res, err
	}
	if m.Cache == nil {
		return run()
	}
	id, err := workloads.Identity(name, m.Scale)
	if err != nil {
		return sim.Result{}, err
	}
	res, _, err := m.Cache.GetOrCompute(resultstore.KeyOf(cfg.Fingerprint(), id), run)
	return res, err
}

// NumRuns returns how many simulations the matrix expands to — what a
// serving layer needs to size progress reporting and enforce request
// limits without running anything.
func (m Matrix) NumRuns() int { return len(m.specs()) }

// Keys expands the matrix into its run list, in the order results are
// reported — the enumeration a distributed coordinator partitions
// across workers (internal/service/fabric) without running anything.
func (m Matrix) Keys() []Key {
	specs := m.specs()
	out := make([]Key, len(specs))
	for i, s := range specs {
		out[i] = Key{Workload: s.name, System: s.sys, Ratio: s.ratio, ADR: s.adr}
	}
	return out
}

// Run executes the sweep and returns the indexed result set.
func (m Matrix) Run() (*Set, error) {
	return m.RunContext(context.Background()) //raccd:ctxlog-ok public no-ctx convenience wrapper over RunContext
}

// RunContext is Run with cancellation: when ctx is cancelled the sweep
// stops (in-flight simulations finish, queued ones are skipped) and
// ctx's error is returned.
func (m Matrix) RunContext(ctx context.Context) (*Set, error) {
	specs := m.specs()
	set := NewSet(nil)
	err := runner.Run(ctx, m.Jobs, len(specs),
		func(_ context.Context, i int) (sim.Result, error) {
			s := specs[i]
			cfg := m.config(s.sys, s.ratio)
			cfg.ADR = s.adr
			res, err := m.simulate(cfg, s.name)
			if err != nil {
				return sim.Result{}, fmt.Errorf("report: run %v (scale %g): %w", s, m.Scale, err)
			}
			return res, nil
		},
		func(i int, res sim.Result) {
			set.Add(res)
			if m.Progress != nil {
				s := specs[i]
				m.Progress(fmt.Sprintf("%-9s %-8v%s 1:%-3d cycles=%d", s.name, s.sys, s.tag(), s.ratio, res.Cycles))
			}
		})
	if err != nil {
		return nil, err
	}
	return set, nil
}

// NCRTLatencies is the §V-C sensitivity sweep.
var NCRTLatencies = []uint64{1, 2, 3, 5, 10}

// RunNCRTSweep measures RaCCD cycles at each NCRT lookup latency.
func (m Matrix) RunNCRTSweep() (map[uint64]map[string]uint64, error) {
	return m.RunNCRTSweepContext(context.Background()) //raccd:ctxlog-ok public no-ctx convenience wrapper over RunNCRTSweepContext
}

// RunNCRTSweepContext is RunNCRTSweep with cancellation, parallelized
// across m.Jobs workers with deterministic reporting order.
func (m Matrix) RunNCRTSweepContext(ctx context.Context) (map[uint64]map[string]uint64, error) {
	type ncrtSpec struct {
		lat  uint64
		name string
	}
	var specs []ncrtSpec
	for _, lat := range NCRTLatencies {
		for _, name := range m.Workloads {
			specs = append(specs, ncrtSpec{lat, name})
		}
	}
	out := make(map[uint64]map[string]uint64, len(NCRTLatencies))
	err := runner.Run(ctx, m.Jobs, len(specs),
		func(_ context.Context, i int) (sim.Result, error) {
			s := specs[i]
			cfg := m.config(coherence.RaCCD, 1)
			cfg.Params.NCRTLookupCycles = s.lat
			res, err := m.simulate(cfg, s.name)
			if err != nil {
				return sim.Result{}, fmt.Errorf("report: run %s/RaCCD 1:1 ncrt=%d (scale %g): %w", s.name, s.lat, m.Scale, err)
			}
			return res, nil
		},
		func(i int, res sim.Result) {
			s := specs[i]
			if out[s.lat] == nil {
				out[s.lat] = make(map[string]uint64, len(m.Workloads))
			}
			out[s.lat][s.name] = res.Cycles
			if m.Progress != nil {
				m.Progress(fmt.Sprintf("%-9s RaCCD ncrt=%d cycles=%d", s.name, s.lat, res.Cycles))
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
