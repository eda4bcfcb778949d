package sim

import (
	"raccd/internal/coherence"
	"raccd/internal/machine"
)

// Knobs describes one run the way every entry point states it — the
// library (raccd.Config is its public name), raccdsim, a sweep matrix's
// cells and the service's run requests: a system, a machine, and the
// overrides a caller may set on top of that machine. Resolve is the one
// translation from Knobs to the Config a run executes.
type Knobs struct {
	// System is FullCoh, PT or RaCCD.
	System coherence.Mode
	// Machine is the simulated chip geometry; the zero value is the
	// paper's 16-core machine (Paper16). Select presets with Machine32,
	// Machine64 or ScaledMachine, or compose a custom geometry — see
	// docs/MACHINE.md.
	Machine machine.Machine
	// DirRatio is the 1:N directory reduction; 1, 2, 4, 8, 16, 64 or 256.
	DirRatio int
	// ADR enables Adaptive Directory Reduction (PT or RaCCD only).
	ADR bool
	// Scheduler is "fifo" (default), "lifo" or "locality".
	Scheduler string
	// NCRTLatency overrides the NCRT lookup latency in cycles; 0 selects
	// the default of 1.
	NCRTLatency uint64
	// NCRTEntries overrides the NCRT capacity (default 32, Table I).
	NCRTEntries int
	// WriteThrough selects write-through private caches (default
	// write-back).
	WriteThrough bool
	// Contiguity is the physical page allocator contiguity in [0,1];
	// 0 selects the default of 1, the Linux behaviour the paper reports.
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

// Resolve returns the Config a run of k executes, built in one order:
// the machine's geometry, then the machine's core timing, then every
// override k sets. A zero override keeps the machine's value (the wire
// cannot tell 0 from unset), and a zero DirRatio means 1:1.
func (k Knobs) Resolve() Config {
	cfg := Config{
		System:           k.System,
		DirRatio:         k.DirRatio,
		ADR:              k.ADR,
		Scheduler:        k.Scheduler,
		Params:           k.Machine.Params(),
		Validate:         k.Validate,
		SMTWays:          k.SMTWays,
		Core:             k.Machine.Core,
		PrefetchDegree:   k.Machine.PrefetchDegree,
		PrefetchDistance: k.Machine.PrefetchDistance,
	}
	if cfg.DirRatio == 0 {
		cfg.DirRatio = 1
	}
	if k.NCRTLatency != 0 {
		cfg.Params.NCRTLookupCycles = k.NCRTLatency
	}
	if k.NCRTEntries != 0 {
		cfg.Params.NCRTEntries = k.NCRTEntries
	}
	if k.Contiguity != 0 {
		cfg.Params.Contiguity = k.Contiguity
	}
	cfg.Params.WriteThrough = k.WriteThrough
	return cfg
}

// Check reports whether k describes a runnable machine, returning a
// descriptive error otherwise: unknown scheduler names, directory ratios
// the geometry cannot realize, out-of-range SMT ways, contiguity outside
// [0, 1], negative NCRT capacity, and ADR on FullCoh. raccd.Run checks
// every configuration; call it directly to fail fast before a long
// sweep. (The name Validate is taken by the golden-validation field.)
func (k Knobs) Check() error {
	if err := k.Machine.Check(); err != nil {
		return err
	}
	return k.Resolve().Check()
}

// Fingerprint returns the canonical identity of the machine k describes:
// two Knobs fingerprint identically exactly when they drive identical
// simulations. Paired with the workload identity it forms the content
// address under which the raccdd service and `sweep -cache` store
// results (see docs/SERVICE.md).
func (k Knobs) Fingerprint() string { return k.Resolve().Fingerprint() }
