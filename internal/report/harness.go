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
	Cache *resultstore.Store
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
	// scheme, the wall-clock duration of the simulation alone (not of
	// building its workload), and its Result (for counter aggregation —
	// e.g. prefetch totals). Calls may be concurrent when Jobs > 1; the
	// hook must be safe for that. The leading string is always "": it is
	// kept only so the benchmark module in bench/, which cannot change in
	// step with this package, still compiles.
	OnSimulated func(_ string, system coherence.Mode, elapsed time.Duration, res sim.Result)
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

// Keys expands the matrix into its run list, in the order results are
// reported — the cells RunContext simulates, and the enumeration a
// distributed coordinator partitions across workers
// (internal/service/fabric) without running anything.
func (m Matrix) Keys() []Key {
	var out []Key
	for _, name := range m.Workloads {
		for _, sys := range m.Systems {
			for _, ratio := range m.Ratios {
				out = append(out, Key{name, sys, ratio, false})
			}
			if m.ADR && sys != coherence.FullCoh {
				out = append(out, Key{name, sys, 1, true})
			}
		}
	}
	return out
}

// NumRuns returns how many simulations the matrix expands to — what a
// serving layer needs to size progress reporting and enforce request
// limits without running anything.
func (m Matrix) NumRuns() int { return len(m.Keys()) }

// knobs describes cell k: the matrix's machine with the matrix's
// core-timing overrides, at k's system, ratio and ADR setting.
func (m Matrix) knobs(k Key) sim.Knobs {
	return sim.Knobs{
		System:   k.System,
		Machine:  m.Machine.WithTiming(m.Core, m.PrefetchDegree, m.PrefetchDistance),
		DirRatio: k.Ratio,
		ADR:      k.ADR,
		Validate: m.Validate,
	}
}

// simulate runs one cell through Simulate, keyed by (cfg.Fingerprint,
// workload identity) when m.Cache is attached, and reports a simulation
// it executed to OnSimulated. ids resolves each workload's identity once
// for all the cells of one sweep.
func (m Matrix) simulate(ctx context.Context, ids *workloads.Identities, k sim.Knobs, workload string) (sim.Result, error) {
	cfg := k.Resolve()
	var key resultstore.Key
	if m.Cache != nil {
		id, _, err := ids.Resolve(workload, m.Scale)
		if err != nil {
			return sim.Result{}, err
		}
		key = resultstore.KeyOf(cfg.Fingerprint(), id)
	}
	res, cached, _, elapsed, err := Simulate(ctx, m.Cache, key, workload, m.Scale, cfg)
	if err == nil && !cached && m.OnSimulated != nil {
		m.OnSimulated("", cfg.System, elapsed, res)
	}
	return res, err
}

// Simulate builds workload at scale and simulates it on cfg: the one
// in-process run body, behind sweeps (Matrix) and the daemon's executor
// alike. With a store, the run is recalled when key is cached and
// computed at most once per key otherwise (concurrent identical calls
// coalesce); key must then be resultstore.KeyOf of cfg's fingerprint and
// the workload's identity. Without one, key is ignored. cached reports a
// result this call did not compute. build and run are this call's wall
// time building the workload and simulating it, zero for a step it did
// not take. ctx aborts an in-flight simulation at its next task
// dispatch.
func Simulate(ctx context.Context, store *resultstore.Store, key resultstore.Key, workload string, scale float64, cfg sim.Config) (res sim.Result, cached bool, build, run time.Duration, err error) {
	compute := func() (sim.Result, error) {
		// Cancelled while queued: don't start a simulation nobody will
		// wait for.
		if err := ctx.Err(); err != nil {
			return sim.Result{}, err
		}
		start := time.Now()
		w, err := workloads.Get(workload, scale)
		build = time.Since(start)
		if err != nil {
			return sim.Result{}, err
		}
		start = time.Now()
		res, err := sim.RunContext(ctx, w, cfg)
		run = time.Since(start)
		return res, err
	}
	if store == nil {
		res, err = compute()
	} else {
		res, cached, err = store.GetOrCompute(key, compute)
	}
	return res, cached, build, run, err
}

// Run executes the sweep and returns the indexed result set.
func (m Matrix) Run() (*Set, error) {
	return m.RunContext(context.Background()) //raccd:ctxlog-ok public no-ctx convenience wrapper over RunContext
}

// RunContext is Run with cancellation: when ctx is cancelled the sweep
// stops — queued runs are skipped, and in-flight simulations abort at
// their next task dispatch — and ctx's error is returned.
func (m Matrix) RunContext(ctx context.Context) (*Set, error) {
	keys := m.Keys()
	set := NewSet(nil)
	ids := new(workloads.Identities)
	err := runner.Run(ctx, m.Jobs, len(keys),
		func(ctx context.Context, i int) (sim.Result, error) {
			k := keys[i]
			res, err := m.simulate(ctx, ids, m.knobs(k), k.Workload)
			if err != nil {
				return sim.Result{}, fmt.Errorf("report: run %v (scale %g): %w", k, m.Scale, err)
			}
			return res, nil
		},
		func(i int, res sim.Result) {
			set.Add(res)
			if m.Progress != nil {
				m.Progress(keys[i].ProgressLine(res.Cycles, false))
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
	ids := new(workloads.Identities)
	err := runner.Run(ctx, m.Jobs, len(specs),
		func(ctx context.Context, i int) (sim.Result, error) {
			s := specs[i]
			k := m.knobs(Key{Workload: s.name, System: coherence.RaCCD, Ratio: 1})
			k.NCRTLatency = s.lat
			res, err := m.simulate(ctx, ids, k, s.name)
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
