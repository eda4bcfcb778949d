// Package exec is the execution layer of the simulation service: it
// materializes wire requests into checked sim.Configs and sweep
// matrices, and runs one simulation at a time through the result store
// for global dedupe, returning exactly the CSV internal/report
// produces. Fan-out across runs belongs to the fabric coordinator
// above it, which calls Run once per run through its in-process Local
// backend. exec owns the daemon's execution counters (per-scheme
// run-latency histograms, per-phase job times, prefetch totals) so the
// stats and /metrics endpoints are a pure read.
package exec

import (
	"context"
	"fmt"
	"time"

	"raccd/client"
	"raccd/internal/coherence"
	"raccd/internal/machine"
	"raccd/internal/obs"
	"raccd/internal/report"
	"raccd/internal/resultstore"
	"raccd/internal/sim"
	"raccd/internal/workloads"
)

// Executor runs checked configurations through a result store. Create
// with New; safe for concurrent use.
type Executor struct {
	st      *resultstore.Store
	metrics Metrics
}

// New returns an executor over st.
func New(st *resultstore.Store) *Executor {
	return &Executor{st: st}
}

// Metrics returns the executor's counters for snapshotting.
func (e *Executor) Metrics() *Metrics { return &e.metrics }

// Scale resolves a request's problem scale (0 means 1.0).
func Scale(req client.RunRequest) float64 {
	if req.Scale == 0 {
		return 1.0
	}
	return req.Scale
}

// BuildConfig materializes a run request as a checked sim.Config. The
// trailing parameters are ignored: they are kept only so the benchmark
// module in bench/, which cannot change in step with this package, still
// compiles; pass "", 0.
func BuildConfig(r client.RunRequest, _ string, _ int) (sim.Config, error) {
	mode, err := coherence.ParseMode(r.System)
	if err != nil {
		return sim.Config{}, err
	}
	mach, err := machine.Parse(r.Machine)
	if err != nil {
		return sim.Config{}, err
	}
	ratio := r.DirRatio
	if ratio == 0 {
		ratio = 1
	}
	cfg := sim.DefaultConfig(mode, ratio)
	cfg.Params = mach.Params()
	cfg.ADR = r.ADR
	cfg.Scheduler = r.Scheduler
	cfg.SMTWays = r.SMTWays
	if r.NCRTLatency != 0 {
		cfg.Params.NCRTLookupCycles = r.NCRTLatency
	}
	if r.NCRTEntries != 0 {
		cfg.Params.NCRTEntries = r.NCRTEntries
	}
	cfg.Params.WriteThrough = r.WriteThrough
	if r.Contiguity != 0 {
		cfg.Params.Contiguity = r.Contiguity
	}
	cfg.Validate = r.Validate == nil || *r.Validate
	cfg.Core = mach.Core
	cfg.PrefetchDegree = mach.PrefetchDegree
	cfg.PrefetchDistance = mach.PrefetchDistance
	if r.Core != "" {
		cfg.Core = r.Core
	}
	if r.PrefetchDegree != 0 {
		cfg.PrefetchDegree = r.PrefetchDegree
	}
	if r.PrefetchDistance != 0 {
		cfg.PrefetchDistance = r.PrefetchDistance
	}
	return cfg, cfg.Check()
}

// BuildMatrix materializes a sweep request as a report.Matrix for the
// service to expand (NumRuns, Keys) into runs. It rejects unknown
// systems and machines; fabric.SpecsFromMatrix checks every cell the
// matrix expands to.
func BuildMatrix(r client.SweepRequest) (report.Matrix, error) {
	m := report.DefaultMatrix()
	m.ADR = r.ADR
	mach, err := machine.Parse(r.Machine)
	if err != nil {
		return report.Matrix{}, err
	}
	m.Machine = mach
	if len(r.Workloads) > 0 {
		m.Workloads = r.Workloads
	}
	if len(r.Systems) > 0 {
		m.Systems = m.Systems[:0]
		for _, name := range r.Systems {
			mode, err := coherence.ParseMode(name)
			if err != nil {
				return report.Matrix{}, err
			}
			m.Systems = append(m.Systems, mode)
		}
	}
	if len(r.Ratios) > 0 {
		m.Ratios = r.Ratios
	}
	if r.Scale != 0 {
		m.Scale = r.Scale
	}
	m.Validate = r.Validate == nil || *r.Validate
	m.Core = r.Core
	m.PrefetchDegree = r.PrefetchDegree
	m.PrefetchDistance = r.PrefetchDistance
	return m, nil
}

// Run executes one simulation of workload at scale on the checked cfg
// through the result store: the run is recalled when key is cached and
// computed at most once per key otherwise (the store single-flights
// concurrent identical calls). key must be resultstore.KeyOf of cfg's
// fingerprint and the workload's identity. It returns the run's report
// CSV (header + one row) and whether the result came from the cache.
// ctx aborts an in-flight simulation at its next task dispatch.
func (e *Executor) Run(ctx context.Context, cfg sim.Config, key resultstore.Key, workload string, scale float64) (csv string, res sim.Result, cached bool, err error) {
	ph := obs.PhasesFrom(ctx)
	// total−buildWall−simWall is the store phase: get/put IO, hashing,
	// and — for a coalesced caller — waiting on another goroutine's
	// identical run.
	start := time.Now()
	var buildWall, simWall time.Duration
	res, cached, err = e.st.GetOrCompute(key, func() (sim.Result, error) {
		// Cancellation between queueing and compute: don't start a
		// simulation nobody will wait for.
		if err := ctx.Err(); err != nil {
			return sim.Result{}, err
		}
		buildStart := time.Now()
		w, err := workloads.Get(workload, scale)
		buildWall = time.Since(buildStart)
		ph.Add(obs.PhaseBuild, buildWall)
		if err != nil {
			return sim.Result{}, err
		}
		simStart := time.Now()
		res, err := sim.RunContext(ctx, w, cfg)
		simWall = time.Since(simStart)
		if err == nil {
			e.metrics.Observe(cfg.System, simWall, res)
		}
		return res, err
	})
	ph.Add(obs.PhaseExec, simWall)
	ph.Add(obs.PhaseStore, time.Since(start)-buildWall-simWall)
	if err != nil {
		return "", sim.Result{}, false, err
	}
	obs.Log(ctx).Debug("run complete",
		"workload", workload, "system", cfg.System.String(), "ratio", cfg.DirRatio,
		"cycles", res.Cycles, "cached", cached,
		"sim_ms", simWall.Milliseconds())
	return report.NewSet([]sim.Result{res}).CSV(), res, cached, nil
}

// RunLine formats the progress line of one completed run — the same
// line for runs, batches and sweeps, on a local daemon and forwarded
// through the fabric. It renders the scheme the way report.Matrix
// progress does (`RaCCD   +ADR 1:1`) and tags cache hits.
func RunLine(res sim.Result, cached bool) string {
	adr, tag := "", ""
	if res.ADR {
		adr = "+ADR"
	}
	if cached {
		tag = " (cached)"
	}
	return fmt.Sprintf("%-9s %-8v%s 1:%-3d cycles=%d%s", res.Workload, res.System, adr, res.DirRatio, res.Cycles, tag)
}
