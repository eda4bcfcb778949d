// Package exec is the execution layer of the simulation service. It
// parses wire requests into the run description sweeps and the library
// use (sim.Knobs, resolved into a checked sim.Config) and into sweep
// matrices, and runs one simulation at a time through report.Simulate —
// the same run body an in-process sweep uses — against the result store
// for global dedupe, returning its sim.Result. Fan-out across runs
// belongs to the fabric above it: its in-process Local backend runs a
// batch's specs through runner.Run and calls Run once per spec. exec
// owns the daemon's execution counters (per-scheme run-latency
// histograms, per-phase job times, prefetch totals) so the stats and
// /metrics endpoints are a pure read.
package exec

import (
	"context"
	"time"

	"raccd/client"
	"raccd/internal/coherence"
	"raccd/internal/machine"
	"raccd/internal/obs"
	"raccd/internal/report"
	"raccd/internal/resultstore"
	"raccd/internal/sim"
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

// BuildConfig resolves a run request into a checked sim.Config: it
// parses the request's system and machine names, and sim.Knobs.Resolve
// applies every override the way it does for the library and sweeps.
// The trailing parameters are ignored: they are kept only so the
// benchmark module in bench/, which cannot change in step with this
// package, still compiles; pass "", 0.
func BuildConfig(r client.RunRequest, _ string, _ int) (sim.Config, error) {
	mode, err := coherence.ParseMode(r.System)
	if err != nil {
		return sim.Config{}, err
	}
	mach, err := machine.Parse(r.Machine)
	if err != nil {
		return sim.Config{}, err
	}
	k := sim.Knobs{
		System:       mode,
		Machine:      mach.WithTiming(r.Core, r.PrefetchDegree, r.PrefetchDistance),
		DirRatio:     r.DirRatio,
		ADR:          r.ADR,
		Scheduler:    r.Scheduler,
		NCRTLatency:  r.NCRTLatency,
		NCRTEntries:  r.NCRTEntries,
		WriteThrough: r.WriteThrough,
		Contiguity:   r.Contiguity,
		SMTWays:      r.SMTWays,
		Validate:     r.Validate == nil || *r.Validate,
	}
	// A parsed machine is a preset, so checking the resolved Config
	// covers everything Knobs.Check would.
	cfg := k.Resolve()
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
// through the result store (report.Simulate): the run is recalled when
// key is cached and computed at most once per key otherwise. key must
// be resultstore.KeyOf of cfg's fingerprint and the workload's
// identity. cached reports a result recalled rather than simulated. ctx
// aborts an in-flight simulation at its next task dispatch.
func (e *Executor) Run(ctx context.Context, cfg sim.Config, key resultstore.Key, workload string, scale float64) (res sim.Result, cached bool, err error) {
	start := time.Now()
	res, cached, build, run, err := report.Simulate(ctx, e.st, key, workload, scale, cfg)
	// What the call spent neither building nor simulating is the store
	// phase: get/put IO, hashing, and — for a coalesced caller — waiting
	// on another goroutine's identical run. It is taken on return, so
	// the bookkeeping below, which allocates, falls in a phase too. Only
	// a call that built the workload reports a build phase.
	ph := obs.PhasesFrom(ctx)
	defer func() {
		if build > 0 {
			ph.Add(obs.PhaseBuild, build)
		}
		ph.Add(obs.PhaseExec, run)
		ph.Add(obs.PhaseStore, time.Since(start)-build-run)
	}()
	if err != nil {
		return sim.Result{}, false, err
	}
	if !cached {
		e.metrics.Observe(cfg.System, run, res)
	}
	obs.Log(ctx).Debug("run complete",
		"workload", workload, "system", cfg.System.String(), "ratio", cfg.DirRatio,
		"cycles", res.Cycles, "cached", cached,
		"sim_ms", run.Milliseconds())
	return res, cached, nil
}
