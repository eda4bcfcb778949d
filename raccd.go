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

// Config selects the system under test: a System, a Machine and a
// DirRatio, plus the overrides ADR, Scheduler, NCRTLatency, NCRTEntries,
// WriteThrough, Contiguity, SMTWays and Validate. A zero NCRTLatency,
// NCRTEntries or Contiguity keeps the machine's value, so an NCRTLatency
// or Contiguity of 0 selects 1. Config is the one run description the
// library, raccdsim, sweeps and the raccdd service all resolve through.
// Check reports whether it is runnable; Fingerprint is its cache
// identity.
type Config = sim.Knobs

// DefaultConfig returns a validated configuration for the given system and
// directory ratio.
func DefaultConfig(system System, dirRatio int) Config {
	return Config{System: system, DirRatio: dirRatio, Contiguity: 1.0, Validate: true}
}

// ParseSystem resolves a system name — FullCoh, PT, PT-RO (or PTRO) or
// RaCCD, in any case — to its System.
func ParseSystem(name string) (System, error) { return coherence.ParseMode(name) }

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
	return sim.RunContext(ctx, w, cfg.Resolve())
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
	tr, err := tracefile.Record(wl, tracefile.Fingerprint(wl.Name()))
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
	t, err := tracefile.Decode(r)
	if err != nil {
		return nil, err
	}
	return t, nil
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
