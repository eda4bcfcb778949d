// Package sim assembles the full simulated machine — coherence hierarchy,
// task runtime, energy models — runs a workload on it, validates the final
// memory image, and collects every metric the paper's figures report.
package sim

import (
	"context"
	"fmt"

	"raccd/internal/coherence"
	"raccd/internal/core"
	"raccd/internal/cpu"
	"raccd/internal/energy"
	"raccd/internal/machine"
	"raccd/internal/mem"
	"raccd/internal/noc"
	"raccd/internal/rts"
)

// Workload is anything that can populate a task graph. The workloads package
// provides the paper's nine benchmarks plus Cholesky.
type Workload interface {
	Name() string
	Build(g *rts.Graph)
}

// Config selects the system under test for one run.
type Config struct {
	// System is FullCoh, PT or RaCCD.
	System coherence.Mode
	// DirRatio is the 1:N directory reduction (1, 2, 4, 8, 16, 64, 256).
	DirRatio int
	// ADR enables Adaptive Directory Reduction (starts from DirRatio size,
	// normally 1, and resizes dynamically).
	ADR bool
	// Scheduler is the ready-queue policy: "fifo" (default), "lifo",
	// "locality".
	Scheduler string
	// Params overrides the machine parameters (zero value → DefaultParams).
	Params coherence.Params
	// Validate checks the drained memory against the golden writers and
	// the protocol invariants after the run.
	Validate bool
	// ComputePerAccess overrides the per-access compute cost (0 → default).
	ComputePerAccess uint64
	// SMTWays runs the machine with N hardware threads per core (§III-E):
	// the runtime schedules tasks onto Cores×SMTWays logical processors,
	// threads on a core share its L1 and NCRT (entries tagged by thread),
	// and recovery flushes are per-thread. 0 or 1 disables SMT.
	SMTWays int
	// Core selects the core-timing model: "" or "simple" (the classic
	// fixed-cost core, the golden-pinned seed behaviour) or "ooo" (a
	// 32-entry-window out-of-order core that overlaps independent access
	// latencies). A core model changes the simulated machine — cycles,
	// and through prefetch even traffic — so all three timing knobs
	// participate in Fingerprint (cfg/v3).
	Core string
	// PrefetchDegree enables a delta-pattern stride prefetcher on every
	// core: each trained trigger fetches this many blocks (0 disables).
	// Prefetches are real accesses against the coherence hierarchy and
	// generate scheme-dependent directory/sharer/NoC traffic.
	PrefetchDegree int
	// PrefetchDistance is how many strides ahead the prefetcher runs
	// (0 with a positive degree → cpu.DefaultPrefetchDistance).
	PrefetchDistance int
}

// DefaultConfig returns a validated baseline configuration.
func DefaultConfig(system coherence.Mode, dirRatio int) Config {
	return Config{
		System:   system,
		DirRatio: dirRatio,
		Params:   coherence.DefaultParams(),
		Validate: true,
	}
}

// maxSMTWays bounds the §III-E SMT extension; beyond this the per-core
// structures the threads share stop resembling the modelled machine.
const maxSMTWays = 16

// Check reports whether the configuration describes a runnable machine,
// with a descriptive error when it does not: unknown scheduler policies,
// L1, LLC or directory geometry the arrays cannot be built with,
// directory ratios the directory geometry cannot realize, out-of-range SMT
// widths, page contiguity outside [0, 1] and ADR on a system with nothing
// to deactivate are all rejected
// here rather than as panics (or silent acceptance) deeper in the run.
// Run calls it on every configuration; CLIs call it up front to fail
// before spending simulation time. (The name Validate is taken by the
// golden-memory-validation field.)
func (c Config) Check() error {
	switch c.Scheduler {
	case "", "fifo", "lifo", "locality":
	default:
		return fmt.Errorf("sim: unknown scheduler %q (want fifo, lifo or locality)", c.Scheduler)
	}
	params := c.Params
	if params.Cores == 0 {
		params = coherence.DefaultParams()
	}
	if params.Cores <= 0 || params.Cores&(params.Cores-1) != 0 {
		return fmt.Errorf("sim: core count %d must be a positive power of two", params.Cores)
	}
	if params.Cores > machine.MaxCores {
		return fmt.Errorf("sim: core count %d exceeds the %d-bit directory sharer vector", params.Cores, machine.MaxCores)
	}
	if params.NoCTopology == "" || params.NoCTopology == "mesh" {
		w, h := params.MeshW, params.MeshH
		if w == 0 && h == 0 {
			w, h = noc.DefaultMeshDims(params.Cores)
		}
		if w <= 0 || h <= 0 || w*h != params.Cores {
			return fmt.Errorf("sim: %d×%d mesh cannot connect %d cores", params.MeshW, params.MeshH, params.Cores)
		}
	}
	if err := params.CheckGeometry(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.DirRatio < 0 {
		return fmt.Errorf("sim: negative directory ratio 1:%d", c.DirRatio)
	}
	if c.DirRatio > 0 && params.DirSetsPerBank%c.DirRatio != 0 {
		return fmt.Errorf("sim: directory ratio 1:%d does not divide the %d directory sets per bank (paper configurations: 1, 2, 4, 8, 16, 64, 256)",
			c.DirRatio, params.DirSetsPerBank)
	}
	if params.NCRTEntries <= 0 {
		return fmt.Errorf("sim: NCRT capacity %d must be positive", params.NCRTEntries)
	}
	if params.Contiguity < 0 || params.Contiguity > 1 {
		return fmt.Errorf("sim: contiguity %g out of range [0, 1]", params.Contiguity)
	}
	if c.SMTWays < 0 || c.SMTWays > maxSMTWays {
		return fmt.Errorf("sim: SMT ways %d out of range [0, %d]", c.SMTWays, maxSMTWays)
	}
	if c.ADR && c.System == coherence.FullCoh {
		return fmt.Errorf("sim: ADR requires a coherence-deactivation system (PT or RaCCD)")
	}
	if err := c.cpuConfig(params).Check(); err != nil {
		return err
	}
	return nil
}

// cpuConfig projects the timing knobs onto a cpu.Config for one logical
// processor of the machine described by params.
func (c Config) cpuConfig(params coherence.Params) cpu.Config {
	compute := c.ComputePerAccess
	if compute == 0 {
		compute = rts.DefaultComputePerAccess
	}
	return cpu.Config{
		Model:            c.Core,
		ComputePerAccess: compute,
		PrefetchDegree:   c.PrefetchDegree,
		PrefetchDistance: c.PrefetchDistance,
		MissLatency:      params.LLCCycles,
	}
}

// Result carries every metric needed to regenerate the paper's figures.
// It is a plain value: it holds no handle into the run's machine, whose
// arrays the next run reuses, and two Results compare with ==.
type Result struct {
	Workload string
	System   coherence.Mode
	DirRatio int
	ADR      bool

	// Fig 6: execution cycles (makespan over the 16 cores).
	Cycles uint64
	// Fig 7a: total directory accesses.
	DirAccesses uint64
	// Fig 7b: LLC demand hit ratio.
	LLCHitRatio float64
	// Fig 7c: NoC traffic in byte-hops.
	NoCByteHops uint64
	// Fig 7d / Fig 10: directory dynamic energy (model units).
	DirEnergy float64
	// Fig 8: access-weighted average directory occupancy fraction.
	DirOccupancy float64
	// Fig 2: fraction of blocks never accessed coherently.
	NCFraction float64

	// Supporting metrics.
	L1HitRatio   float64
	L1Writebacks uint64
	LLCEnergy    float64
	NoCEnergy    float64
	DirKB        float64
	MemReads     uint64
	MemWrites    uint64
	TasksRun     uint64
	GraphEdges   uint64
	ADRReconfigs uint64
	ADRFinalSets int

	// Prefetcher counters, summed over every logical processor's core
	// model; all zero when no prefetcher is configured. They live in the
	// Result (and its JSON) but not the frozen 15-field CSV.
	PrefetchIssued   uint64  `json:",omitempty"`
	PrefetchUseful   uint64  `json:",omitempty"`
	PrefetchLate     uint64  `json:",omitempty"`
	PrefetchCoverage float64 `json:",omitempty"`

	HStats coherence.Stats
	RStats rts.Stats
}

// Run executes workload w under cfg and returns the collected metrics.
func Run(w Workload, cfg Config) (Result, error) {
	return RunContext(context.Background(), w, cfg) //raccd:ctxlog-ok public no-ctx convenience wrapper; callers who need cancellation use RunContext
}

// RunContext is Run with cancellation: the runtime polls ctx at every task
// dispatch, so even a single long simulation — not just a sweep — stops
// promptly when ctx is cancelled, returning ctx's error.
//
// A panic inside the run — a workload storing outside its declared
// ranges under Validate, or a model invariant tripping — is returned as
// the run's error rather than unwinding the caller, so one bad run
// (say, a mis-annotated trace in a daemon's sweep) fails alone instead
// of taking down every goroutine pool above it.
func RunContext(ctx context.Context, w Workload, cfg Config) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = Result{}, fmt.Errorf("sim: %s/%v: %v", w.Name(), cfg.System, p)
		}
	}()
	if err := cfg.Check(); err != nil {
		return Result{}, err
	}
	if cfg.Params.Cores == 0 {
		cfg.Params = coherence.DefaultParams()
	}
	if cfg.DirRatio == 0 {
		cfg.DirRatio = 1
	}
	params := cfg.Params.WithDirRatio(cfg.DirRatio)

	h := coherence.New(cfg.System, params)
	// The Result copies every metric out of h, so its arrays go back to
	// the recycler however the run ends: done, failed, cancelled or
	// panicking.
	defer h.Release()
	// Directory energy model. The sqrt access-energy curve is anchored at
	// the 1:1 (unreduced) geometry: E0 is the per-access energy of the
	// full-size directory. Every access is then charged at the capacity
	// it actually hit — the DirRatio-reduced size of this run (dirKB,
	// from the reduced params) for plain runs, or the instantaneous
	// capacity under ADR — so per-access directory energy shrinks as the
	// directory shrinks (Fig 7d / Fig 10). Anchoring the curve at the
	// reduced geometry instead would flatten per-access energy to E0 at
	// every ratio.
	fullDirKB := energy.DirectorySizeKB(cfg.Params.Cores * cfg.Params.DirSetsPerBank * cfg.Params.DirWays)
	dirKB := energy.DirectorySizeKB(params.Cores * params.DirSetsPerBank * params.DirWays)
	llcKB := float64(params.Cores*params.LLCSetsPerBank*params.LLCWays*mem.BlockSize) / 1024
	models := energy.Default(fullDirKB, llcKB)
	var adrCtl *core.ADR
	if cfg.ADR {
		adrCtl = h.EnableADR()
		h.EnergyPerDirAccess = func(entries int) float64 {
			return models.Dir.PerAccess(energy.DirectorySizeKB(entries))
		}
	}

	g := rts.NewGraph()
	w.Build(g)
	if err := g.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %s: %w", w.Name(), err)
	}

	var mach rts.Machine = h
	logical := params.Cores
	if cfg.SMTWays > 1 {
		mach = smtMachine{h: h, ways: cfg.SMTWays}
		logical = params.Cores * cfg.SMTWays
	}
	rt := rts.NewRuntime(mach, logical, rts.NewScheduler(cfg.Scheduler))
	if cfg.ComputePerAccess != 0 {
		rt.ComputePerAccess = cfg.ComputePerAccess
	}
	// Core-timing models: one instance per logical processor (they hold
	// per-core state). The default configuration builds nil models and
	// CoreModels stays nil — the classic fixed-cost fast path, which is
	// what keeps the golden sweep byte-identical.
	var coreModels []cpu.Model
	if first, err := cpu.New(cfg.cpuConfig(params)); err != nil {
		return Result{}, err
	} else if first != nil {
		coreModels = make([]cpu.Model, logical)
		coreModels[0] = first
		for i := 1; i < logical; i++ {
			if coreModels[i], err = cpu.New(cfg.cpuConfig(params)); err != nil {
				return Result{}, err
			}
		}
		rt.CoreModels = make([]rts.CoreModel, logical)
		for i, m := range coreModels {
			rt.CoreModels[i] = m
		}
	}
	rt.StrictAnnotations = cfg.Validate
	if ctx.Done() != nil {
		rt.Cancel = ctx.Err
	}
	cycles := rt.Run(g)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	if cfg.Validate {
		if err := h.CheckInvariants(); err != nil {
			return Result{}, fmt.Errorf("sim: %s/%v: invariants: %w", w.Name(), cfg.System, err)
		}
	}
	ncFrac := h.NonCoherentFraction()
	h.DrainAll()
	if cfg.Validate {
		var verr error
		rt.EachGolden(func(b mem.Block, want uint64) {
			if verr != nil {
				return
			}
			if got := h.VirtValue(b.Addr()); got != want {
				verr = fmt.Errorf("sim: %s/%v: block %#x final value %d, want task %d",
					w.Name(), cfg.System, uint64(b.Addr()), got, want)
			}
		})
		if verr != nil {
			return Result{}, verr
		}
	}

	dir := h.Dir()
	hs := h.Stats
	res = Result{
		Workload:     w.Name(),
		System:       cfg.System,
		DirRatio:     cfg.DirRatio,
		ADR:          adrCtl != nil,
		Cycles:       cycles,
		DirAccesses:  dir.Stats.Accesses,
		NoCByteHops:  h.Mesh().Stats.TotalByteHops(),
		DirOccupancy: dir.AvgOccupancyFraction(),
		NCFraction:   ncFrac,
		L1Writebacks: hs.L1Writebacks,
		MemReads:     hs.MemReads,
		MemWrites:    hs.MemWrites,
		TasksRun:     rt.Stats.TasksRun,
		GraphEdges:   g.NumEdges(),
		ADRFinalSets: dir.SetsPerBank(),

		HStats: hs,
		RStats: rt.Stats,
	}
	if hs.LLCDemand > 0 {
		res.LLCHitRatio = float64(hs.LLCDemandHits) / float64(hs.LLCDemand)
	}
	if tot := hs.L1Hits + hs.L1Misses; tot > 0 {
		res.L1HitRatio = float64(hs.L1Hits) / float64(tot)
	}
	if coreModels != nil {
		var cs cpu.Stats
		for _, m := range coreModels {
			cs.Add(m.Stats())
		}
		res.PrefetchIssued = cs.PrefetchIssued
		res.PrefetchUseful = cs.PrefetchUseful
		res.PrefetchLate = cs.PrefetchLate
		res.PrefetchCoverage = cs.Coverage()
	}
	// Non-ADR runs are charged at the DirRatio-reduced size for the whole
	// run; ADR runs integrated their energy access-by-access (weighted)
	// and report the final capacity.
	res.DirKB = dirKB
	if adrCtl != nil {
		res.DirKB = energy.DirectorySizeKB(dir.Capacity())
	}
	usage := energy.Usage{
		DirAccesses:             dir.Stats.Accesses,
		DirKB:                   res.DirKB,
		WeightedDirAccessEnergy: h.DirAccessEnergyWeighted,
		LLCAccesses:             hs.LLCDemand,
		LLCKB:                   llcKB,
		NoCByteHops:             res.NoCByteHops,
	}
	if adrCtl != nil {
		res.ADRReconfigs = adrCtl.Stats.Reconfigs
		usage.DirEntriesMoved = adrCtl.Stats.EntriesMoved
	}
	res.DirEnergy = models.DirDynamic(usage)
	res.LLCEnergy = models.LLCDynamic(usage)
	res.NoCEnergy = models.NoCDynamic(usage)
	return res, nil
}

// smtMachine maps the runtime's logical processors onto (core, hardware
// thread) pairs of an SMT machine: logical processor p runs as thread
// p mod ways on core p / ways.
type smtMachine struct {
	h    *coherence.Hierarchy
	ways int
}

func (s smtMachine) Access(p int, va mem.Addr, write bool, val uint64) uint64 {
	return s.h.AccessT(p/s.ways, p%s.ways, va, write, val)
}

func (s smtMachine) RegisterRegion(p int, r mem.Range) uint64 {
	return s.h.RegisterRegionT(p/s.ways, p%s.ways, r)
}

func (s smtMachine) InvalidateNC(p int) uint64 {
	return s.h.InvalidateNCT(p/s.ways, p%s.ways)
}
