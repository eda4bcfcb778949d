// Package raccd is a simulator and runtime-system reproduction of
// "Runtime-Assisted Cache Coherence Deactivation in Task Parallel Programs"
// (Caheny, Alvarez, Valero, Moretó, Casas — SC 2018).
//
// It models a parametric tiled machine — private L1 caches, a banked
// shared LLC, a MESI directory, a W×H mesh NoC, TLBs and a page table —
// whose default geometry is the paper's 16-core, 4×4-mesh chip (see
// Machine and docs/MACHINE.md for the 32- and 64-core presets); a
// task-based data-flow runtime (tasks with in/out/inout range annotations,
// dependence graph, dynamic scheduling); and four coherence schemes:
//
//   - FullCoh — the conventional baseline that tracks every block.
//   - PT      — OS page-table private/shared classification (Cuesta [5]).
//   - PTRO    — PT plus shared read-only deactivation (Cuesta [38], §VI-B).
//   - RaCCD   — the paper's contribution: the runtime registers each task's
//     dependence ranges in a per-core Non-Coherent Region Table, misses to
//     those ranges bypass the directory, and a recovery flush at task end
//     keeps the hierarchy consistent. An Adaptive Directory Reduction
//     controller can resize the directory at run time.
//
// The package ships the paper's nine benchmarks plus a tiled Cholesky, and
// a harness that regenerates every figure and table of the evaluation
// (see EXPERIMENTS.md).
//
// # Quick start
//
//	w, _ := raccd.NewWorkload("Jacobi", 1.0)
//	res, err := raccd.Run(w, raccd.DefaultConfig(raccd.RaCCD, 64))
//	fmt.Println(res.Cycles, res.DirAccesses)
//
// Custom task-parallel programs are built with NewCustomWorkload and the
// TaskGraph API; see examples/quickstart.
//
// The simulator also runs as a service: cmd/raccdd serves runs and whole
// evaluation sweeps over HTTP with a job queue, SSE progress streams and
// a content-addressed result cache shared with `sweep -cache`; package
// raccd/client is the Go client. See docs/SERVICE.md.
package raccd

import (
	"context"
	"fmt"
	"io"

	"raccd/internal/coherence"
	"raccd/internal/mem"
	"raccd/internal/report"
	"raccd/internal/rts"
	"raccd/internal/sim"
	"raccd/internal/tracefile"
	"raccd/internal/workloads"
	"raccd/internal/workloads/synth"
)

// System selects the coherence scheme of a run.
type System = coherence.Mode

// The three systems of the paper's evaluation.
const (
	FullCoh = coherence.FullCoh
	PT      = coherence.PT
	RaCCD   = coherence.RaCCD
	// PTRO is the shared-read-only extension of PT (§VI-B, Cuesta [38]):
	// pages read by many cores but never written after becoming shared
	// also bypass the directory.
	PTRO = coherence.PTRO
)

// Range is a byte range of the simulated virtual address space.
type Range = mem.Range

// Task-graph building blocks for custom workloads.
type (
	// TaskGraph is the task dependence graph a workload populates.
	TaskGraph = rts.Graph
	// Task is one node of the graph.
	Task = rts.Task
	// Dep is one in/out/inout range annotation.
	Dep = rts.Dep
	// Ctx is the execution context a task body uses to touch memory.
	Ctx = rts.Ctx
)

// Dependence directions (OpenMP 4.0 depend clauses).
const (
	In    = rts.In
	Out   = rts.Out
	InOut = rts.InOut
)

// Workload is a named task-graph builder.
type Workload = sim.Workload

// Result carries the metrics of one run; see the Fig-annotated fields.
type Result = sim.Result

// ResultSet indexes sweep results and renders the paper's figures.
type ResultSet = report.Set

// Matrix describes a full evaluation sweep.
type Matrix = report.Matrix

// Config selects the system under test.
type Config struct {
	// System is FullCoh, PT or RaCCD.
	System System
	// Machine is the simulated chip geometry; the zero value is the
	// paper's 16-core machine (Paper16). Select presets with Machine32,
	// Machine64 or ScaledMachine, or compose a custom geometry — see
	// docs/MACHINE.md.
	Machine Machine
	// DirRatio is the 1:N directory reduction; 1, 2, 4, 8, 16, 64 or 256.
	DirRatio int
	// ADR enables Adaptive Directory Reduction (PT or RaCCD only).
	ADR bool
	// Scheduler is "fifo" (default), "lifo" or "locality".
	Scheduler string
	// NCRTLatency overrides the NCRT lookup latency in cycles (default 1).
	NCRTLatency uint64
	// NCRTEntries overrides the NCRT capacity (default 32, Table I).
	NCRTEntries int
	// WriteThrough selects write-through private caches (default
	// write-back).
	WriteThrough bool
	// Contiguity is the physical page allocator contiguity in [0,1]
	// (default 1: the Linux behaviour the paper reports).
	Contiguity float64
	// SMTWays runs N hardware threads per core (§III-E extension): the
	// runtime schedules onto 16×N logical processors, threads share their
	// core's L1 and thread-tagged NCRT, and recovery flushes are
	// per-thread. 0 or 1 disables SMT.
	SMTWays int
	// Validate checks protocol invariants and the final memory image
	// against the task graph's golden writers (default on via
	// DefaultConfig).
	Validate bool
}

// DefaultConfig returns a validated configuration for the given system and
// directory ratio.
func DefaultConfig(system System, dirRatio int) Config {
	return Config{System: system, DirRatio: dirRatio, Contiguity: 1.0, Validate: true}
}

// Check reports whether the configuration describes a runnable machine,
// returning a descriptive error otherwise: unknown scheduler names,
// directory ratios the geometry cannot realize, out-of-range SMT ways,
// contiguity outside [0, 1], negative NCRT capacity, and ADR on FullCoh.
// Run checks every configuration; call it directly to fail fast before a
// long sweep. (The name Validate is taken by the golden-validation field.)
func (c Config) Check() error {
	if err := c.Machine.Check(); err != nil {
		return err
	}
	return c.toSim().Check()
}

func (c Config) toSim() sim.Config {
	cfg := sim.DefaultConfig(c.System, c.DirRatio)
	cfg.Params = c.Machine.Params()
	cfg.ADR = c.ADR
	cfg.Scheduler = c.Scheduler
	cfg.Validate = c.Validate
	if c.NCRTLatency != 0 {
		cfg.Params.NCRTLookupCycles = c.NCRTLatency
	}
	if c.NCRTEntries != 0 {
		cfg.Params.NCRTEntries = c.NCRTEntries
	}
	cfg.Params.WriteThrough = c.WriteThrough
	if c.Contiguity != 0 {
		cfg.Params.Contiguity = c.Contiguity
	}
	cfg.SMTWays = c.SMTWays
	cfg.Core = c.Machine.Core
	cfg.PrefetchDegree = c.Machine.PrefetchDegree
	cfg.PrefetchDistance = c.Machine.PrefetchDistance
	return cfg
}

// Fingerprint returns the canonical identity of the machine this
// configuration describes: two Configs fingerprint identically exactly
// when they drive identical simulations. Paired with WorkloadIdentity it
// forms the content address under which the raccdd service and
// `sweep -cache` store results (see docs/SERVICE.md).
func (c Config) Fingerprint() string { return c.toSim().Fingerprint() }

// WorkloadIdentity returns the canonical identity of the task graph that
// NewWorkload(name, scale) would build — the workload half of a result
// cache key. Benchmarks include their scale; synth: specs canonicalize
// their scaled parameters; trace: files are identified by a hash of
// their content, so renaming a trace file keeps its identity while
// changing its contents invalidates cached results.
func WorkloadIdentity(name string, scale float64) (string, error) {
	return workloads.Identity(name, scale)
}

// Run executes workload w under cfg. Invalid configurations fail with a
// descriptive error before any simulation work (see Config.Check).
func Run(w Workload, cfg Config) (Result, error) {
	return RunContext(context.Background(), w, cfg) //raccd:ctxlog-ok public no-ctx convenience wrapper; callers who need cancellation use RunContext
}

// RunContext is Run with cancellation: the simulator polls ctx at every
// task dispatch, so even one long-running simulation stops promptly when
// ctx is cancelled, returning ctx's error.
func RunContext(ctx context.Context, w Workload, cfg Config) (Result, error) {
	if err := cfg.Check(); err != nil {
		return Result{}, err
	}
	return sim.RunContext(ctx, w, cfg.toSim())
}

// Benchmarks returns every bundled workload name (the paper's nine plus
// Cholesky).
func Benchmarks() []string { return workloads.Names() }

// PaperBenchmarks returns the nine benchmarks of the paper's evaluation.
func PaperBenchmarks() []string { return workloads.PaperSet() }

// NewWorkload constructs a workload by name: a bundled benchmark
// ("Jacobi"), a synthetic spec ("synth:chain/seed=7") or an RTF trace file
// ("trace:run.rtf"). scale 1.0 is the Table II problem size divided by 16
// (matching the capacity-scaled machine); smaller values shrink the run
// proportionally (traces ignore scale — their problem size is baked in).
func NewWorkload(name string, scale float64) (Workload, error) {
	return workloads.Get(name, scale)
}

// NewCustomWorkload wraps a task-graph builder as a runnable workload, the
// entry point for user-written task-parallel programs.
func NewCustomWorkload(name string, build func(g *TaskGraph)) Workload {
	return workloads.New(name, build)
}

// NewTaskGraph returns an empty task dependence graph, for inspecting the
// graph a workload builds without running it.
func NewTaskGraph() *TaskGraph { return rts.NewGraph() }

// WriteTrace serializes wl as an RTF trace (see docs/TRACE_FORMAT.md): the
// task graph is built once and every task body is dry-run against a
// capturing machine, so the trace replays under any Config exactly like wl
// itself. Any workload works — bundled benchmarks, synthetic graphs and
// custom NewCustomWorkload programs (as long as their builders are
// deterministic).
func WriteTrace(w io.Writer, wl Workload) error {
	tr, err := sim.RecordTrace(wl, tracefile.Fingerprint(wl.Name()))
	if err != nil {
		return err
	}
	return tracefile.Encode(w, tr)
}

// ReadTrace decodes an RTF trace into a runnable workload, verifying the
// trailing checksum. The workload keeps the name stored in the trace
// header. Traces are scheme-agnostic: the same file runs under FullCoh,
// PT, PT-RO and RaCCD at any directory ratio, ADR and SMT setting.
func ReadTrace(r io.Reader) (Workload, error) {
	return tracefile.Decode(r)
}

// NewSyntheticWorkload builds a seeded synthetic task graph from a spec of
// the form "preset[/key=val]...", e.g. "chain/seed=7/unannotated=0.25"
// (the "synth:" prefix is optional). See SyntheticPresets for the shapes.
// Generation is deterministic: the same spec always yields the same graph.
func NewSyntheticWorkload(spec string) (Workload, error) {
	return workloads.Get(synth.Canonical(spec), 1.0)
}

// SyntheticPresets lists the synthetic task-graph shapes: producer–consumer
// chains, fork/join reduction trees, stencil wavefronts, migratory and
// read-only sharing, and a seeded random mix.
func SyntheticPresets() []string { return synth.Presets() }

// NewSweep returns the paper's full evaluation matrix at the given scale.
// Run it with RunSweep; render figures from the returned ResultSet.
func NewSweep(scale float64) Matrix {
	m := report.DefaultMatrix()
	m.Scale = scale
	return m
}

// RunSweep executes a matrix and indexes the results. Set m.Jobs to
// parallelize across CPUs; the result set is identical either way.
func RunSweep(m Matrix) (*ResultSet, error) { return m.Run() }

// RunSweepContext is RunSweep with cancellation: when ctx is cancelled
// the sweep stops and ctx's error is returned.
func RunSweepContext(ctx context.Context, m Matrix) (*ResultSet, error) { return m.RunContext(ctx) }

// Table3 regenerates the paper's Table III (directory size and area).
func Table3() string { return report.Table3() }

// Validate runs a minimal self-check of the simulator: a small workload on
// every shipped system — FullCoh, PT, PT-RO and RaCCD — with full
// validation, returning the first error found.
func Validate() error {
	for _, sys := range []System{FullCoh, PT, PTRO, RaCCD} {
		w, err := NewWorkload("Jacobi", 0.05)
		if err != nil {
			return err
		}
		if _, err := Run(w, DefaultConfig(sys, 16)); err != nil {
			return fmt.Errorf("raccd: self-check %v: %w", sys, err)
		}
	}
	return nil
}
