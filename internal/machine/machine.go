// Package machine is the parametric machine model behind the public
// raccd.Machine API: a composable description of the simulated chip —
// core count, mesh geometry, cache/directory/TLB sizing, NCRT defaults —
// with named presets and scaling rules.
//
// The paper evaluates one machine (Table I, capacity-scaled ÷16: 16 cores
// on a 4×4 mesh). Directory-deactivation effects change qualitatively with
// core count and interconnect geometry, so the model generalizes the tile:
// every core keeps the Paper16 per-tile resources (private L1, TLB, NCRT,
// one LLC bank, one directory bank), and scaling a machine means adding
// tiles and growing the mesh. Total LLC and directory capacity therefore
// scale linearly with cores, exactly like the paper's ÷16 scaling rule run
// in reverse.
//
// The zero value of Machine means "the paper's machine": code that never
// mentions a Machine simulates Paper16 bit-for-bit.
package machine

import (
	"fmt"
	"sort"
	"strings"

	"raccd/internal/coherence"
	"raccd/internal/cpu"
	"raccd/internal/noc"
)

// Machine describes the simulated chip geometry. The zero value selects the
// paper's 16-core machine (Paper16); any field left 0 keeps its Paper16
// per-tile value, so partial literals compose naturally with the presets.
type Machine struct {
	// Cores is the number of tiles; a positive power of two up to 64 (the
	// directory's sharer bit-vector is one word wide).
	Cores int
	// MeshW, MeshH are the NoC mesh dimensions; their product must equal
	// Cores. Both 0 selects the canonical near-square factorization
	// (16 → 4×4, 32 → 8×4, 64 → 8×8).
	MeshW, MeshH int

	// Per-tile private L1 geometry (Paper16: 64 sets × 2 ways = 8 KiB).
	L1Sets, L1Ways int
	// Per-bank shared LLC geometry; one bank per tile (Paper16: 256 sets ×
	// 8 ways = 128 KiB/bank).
	LLCSetsPerBank, LLCWays int
	// Per-bank directory geometry at 1:1; one bank per tile (Paper16:
	// 256 sets × 8 ways = 2048 entries/bank).
	DirSetsPerBank, DirWays int
	// TLBEntries is the per-core DTLB capacity (Paper16: 64).
	TLBEntries int
	// NCRTEntries is the default per-core NCRT capacity (Paper16: 32);
	// Config.NCRTEntries still overrides it per run.
	NCRTEntries int

	// Core selects the per-tile core-timing model: "" or "simple" (the
	// fixed-cost core the paper models — the golden-pinned default) or
	// "ooo" (a 32-entry-window out-of-order core; see internal/cpu).
	// Unlike the geometry fields, the timing knobs do not project onto
	// coherence.Params — they ride the sim.Config directly. Name ignores
	// them (an m64 with an OoO core is still "m64"); String renders them.
	Core string
	// PrefetchDegree arms a delta-pattern stride prefetcher on every
	// core: blocks fetched per trained trigger (0 = no prefetcher).
	PrefetchDegree int
	// PrefetchDistance is the prefetcher's look-ahead in strides (0 with
	// a positive degree → the cpu package default).
	PrefetchDistance int
}

// Paper16 returns the paper's machine (Table I, ÷16 capacity-scaled):
// 16 cores on a 4×4 mesh. This is what the zero Machine means.
func Paper16() Machine {
	p := coherence.DefaultParams()
	return Machine{
		Cores: p.Cores,
		MeshW: p.MeshW, MeshH: p.MeshH,
		L1Sets: p.L1Sets, L1Ways: p.L1Ways,
		LLCSetsPerBank: p.LLCSetsPerBank, LLCWays: p.LLCWays,
		DirSetsPerBank: p.DirSetsPerBank, DirWays: p.DirWays,
		TLBEntries:  p.TLBEntries,
		NCRTEntries: p.NCRTEntries,
	}
}

// Machine32 returns a 32-core machine on an 8×4 mesh, each tile identical
// to Paper16's (so LLC and directory capacity double with the cores).
func Machine32() Machine { return Scaled(32) }

// Machine64 returns a 64-core machine on an 8×8 mesh with Paper16 tiles.
func Machine64() Machine { return Scaled(64) }

// Scaled returns a machine with the given core count (a positive power of
// two up to 64) built from Paper16 tiles on the canonical near-square mesh.
// Scaled(16) is exactly Paper16.
func Scaled(cores int) Machine {
	if cores <= 0 || cores&(cores-1) != 0 || cores > MaxCores {
		panic(fmt.Sprintf("machine: core count %d must be a positive power of two ≤ %d", cores, MaxCores))
	}
	m := Paper16()
	m.Cores = cores
	m.MeshW, m.MeshH = noc.DefaultMeshDims(cores)
	return m
}

// MaxCores bounds the model: the directory tracks sharers in one 64-bit
// word, so one bit per core caps the machine at 64 tiles.
const MaxCores = 64

// presets maps the parse names to their constructors, with aliases.
var presets = map[string]func() Machine{
	"paper16":   Paper16,
	"m32":       Machine32,
	"machine32": Machine32,
	"m64":       Machine64,
	"machine64": Machine64,
}

// Names returns the canonical preset names accepted by Parse.
func Names() []string { return []string{"paper16", "m32", "m64"} }

// Parse resolves a machine name: a preset ("paper16", "m32"/"machine32",
// "m64"/"machine64"), an "m<N>" scaled machine for any valid core count
// ("m8" → Scaled(8) — the names Machine.Name renders), or a bare
// power-of-two core count ("32" → Scaled(32)).
func Parse(name string) (Machine, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	if s == "" {
		return Machine{}, nil
	}
	if f, ok := presets[s]; ok {
		return f(), nil
	}
	num := strings.TrimPrefix(s, "m")
	var cores int
	if _, err := fmt.Sscanf(num, "%d", &cores); err == nil && fmt.Sprintf("%d", cores) == num {
		if cores > 0 && cores&(cores-1) == 0 && cores <= MaxCores {
			return Scaled(cores), nil
		}
		return Machine{}, fmt.Errorf("machine: %q: core count %d must be a positive power of two ≤ %d", name, cores, MaxCores)
	}
	known := make([]string, 0, len(presets))
	for k := range presets {
		known = append(known, k)
	}
	sort.Strings(known)
	return Machine{}, fmt.Errorf("machine: unknown machine %q (want %s, or a power-of-two core count)", name, strings.Join(known, ", "))
}

// withDefaults fills every zero field from Paper16.
func (m Machine) withDefaults() Machine {
	d := Paper16()
	if m.Cores == 0 {
		m.Cores = d.Cores
	}
	if m.MeshW == 0 && m.MeshH == 0 && m.Cores > 0 && m.Cores&(m.Cores-1) == 0 {
		m.MeshW, m.MeshH = noc.DefaultMeshDims(m.Cores)
	}
	if m.L1Sets == 0 {
		m.L1Sets = d.L1Sets
	}
	if m.L1Ways == 0 {
		m.L1Ways = d.L1Ways
	}
	if m.LLCSetsPerBank == 0 {
		m.LLCSetsPerBank = d.LLCSetsPerBank
	}
	if m.LLCWays == 0 {
		m.LLCWays = d.LLCWays
	}
	if m.DirSetsPerBank == 0 {
		m.DirSetsPerBank = d.DirSetsPerBank
	}
	if m.DirWays == 0 {
		m.DirWays = d.DirWays
	}
	if m.TLBEntries == 0 {
		m.TLBEntries = d.TLBEntries
	}
	if m.NCRTEntries == 0 {
		m.NCRTEntries = d.NCRTEntries
	}
	return m
}

// WithTiming returns m with each non-zero core-timing setting replacing
// m's own: the core model, the prefetch degree and the prefetch
// distance. A run request or sweep that names its machine by preset
// states its core timing this way.
func (m Machine) WithTiming(core string, prefetchDegree, prefetchDistance int) Machine {
	if core != "" {
		m.Core = core
	}
	if prefetchDegree != 0 {
		m.PrefetchDegree = prefetchDegree
	}
	if prefetchDistance != 0 {
		m.PrefetchDistance = prefetchDistance
	}
	return m
}

// IsZero reports whether m is the zero value (meaning Paper16).
func (m Machine) IsZero() bool { return m == Machine{} }

// geometry returns m with the core-timing knobs cleared: the chip shape
// alone, which is what preset names describe.
func (m Machine) geometry() Machine {
	m.Core, m.PrefetchDegree, m.PrefetchDistance = "", 0, 0
	return m
}

// Name returns the preset name when m's geometry matches one ("paper16",
// "m32", "m64"), or "customN" for an N-core machine with non-preset
// geometry. Core-timing knobs do not change the name: an m64 with an OoO
// core is still an m64 (the knobs key the cache through the fingerprint,
// not through the machine name).
func (m Machine) Name() string {
	n := m.geometry().withDefaults()
	for _, name := range Names() {
		p, _ := Parse(name)
		if n == p.withDefaults() {
			return name
		}
	}
	if c := n.Cores; c != 16 && c > 0 && c&(c-1) == 0 && c <= MaxCores && n == Scaled(c) {
		return fmt.Sprintf("m%d", c)
	}
	return fmt.Sprintf("custom%d", n.Cores)
}

// String renders the geometry for humans — "paper16 (16 cores, 4×4 mesh)" —
// with the core-timing knobs appended when set:
// "m64 (64 cores, 8×8 mesh, ooo core, prefetch 2@4)".
func (m Machine) String() string {
	n := m.withDefaults()
	s := fmt.Sprintf("%s (%d cores, %d×%d mesh", m.Name(), n.Cores, n.MeshW, n.MeshH)
	if n.Core != "" && n.Core != "simple" {
		s += fmt.Sprintf(", %s core", n.Core)
	}
	if n.PrefetchDegree > 0 {
		dist := n.PrefetchDistance
		if dist == 0 {
			dist = cpu.DefaultPrefetchDistance
		}
		s += fmt.Sprintf(", prefetch %d@%d", n.PrefetchDegree, dist)
	}
	return s + ")"
}

// Check reports whether the machine is realizable, with a descriptive
// error otherwise. The zero value and every preset pass.
func (m Machine) Check() error {
	n := m.withDefaults()
	if n.Cores <= 0 || n.Cores&(n.Cores-1) != 0 {
		return fmt.Errorf("machine: core count %d must be a positive power of two", n.Cores)
	}
	if n.Cores > MaxCores {
		return fmt.Errorf("machine: core count %d exceeds the %d-bit sharer vector", n.Cores, MaxCores)
	}
	if n.MeshW <= 0 || n.MeshH <= 0 {
		return fmt.Errorf("machine: mesh dimensions %d×%d must be positive", n.MeshW, n.MeshH)
	}
	if n.MeshW*n.MeshH != n.Cores {
		return fmt.Errorf("machine: %d×%d mesh cannot connect %d cores", n.MeshW, n.MeshH, n.Cores)
	}
	if err := n.Params().CheckGeometry(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if n.TLBEntries <= 0 {
		return fmt.Errorf("machine: TLB capacity %d must be positive", n.TLBEntries)
	}
	if n.NCRTEntries <= 0 {
		return fmt.Errorf("machine: NCRT capacity %d must be positive", n.NCRTEntries)
	}
	if err := (cpu.Config{
		Model:            n.Core,
		PrefetchDegree:   n.PrefetchDegree,
		PrefetchDistance: n.PrefetchDistance,
	}).Check(); err != nil {
		return err
	}
	return nil
}

// Params projects the machine onto the coherence parameters, keeping the
// Paper16 latencies and every non-geometry default. The zero Machine
// projects to exactly coherence.DefaultParams().
func (m Machine) Params() coherence.Params {
	n := m.withDefaults()
	p := coherence.DefaultParams()
	p.Cores = n.Cores
	p.MeshW, p.MeshH = n.MeshW, n.MeshH
	p.L1Sets, p.L1Ways = n.L1Sets, n.L1Ways
	p.LLCSetsPerBank, p.LLCWays = n.LLCSetsPerBank, n.LLCWays
	p.DirSetsPerBank, p.DirWays = n.DirSetsPerBank, n.DirWays
	p.TLBEntries = n.TLBEntries
	p.NCRTEntries = n.NCRTEntries
	return p
}

// DirEntries returns the total 1:1 directory capacity in entries.
func (m Machine) DirEntries() int {
	n := m.withDefaults()
	return n.Cores * n.DirSetsPerBank * n.DirWays
}

// LLCBytes returns the total LLC capacity in bytes (64 B blocks).
func (m Machine) LLCBytes() int {
	n := m.withDefaults()
	return n.Cores * n.LLCSetsPerBank * n.LLCWays * 64
}

// LogicalCPUs returns the number of logical processors the runtime
// schedules onto under the given SMT width (0 or 1 means no SMT).
func (m Machine) LogicalCPUs(smtWays int) int {
	if smtWays < 1 {
		smtWays = 1
	}
	return m.withDefaults().Cores * smtWays
}

// FromParams recovers the Machine a Params projection described — the
// inverse of Params for the geometry fields. Used to render Table I-style
// summaries from a sim.Config.
func FromParams(p coherence.Params) Machine {
	m := Machine{
		Cores: p.Cores,
		MeshW: p.MeshW, MeshH: p.MeshH,
		L1Sets: p.L1Sets, L1Ways: p.L1Ways,
		LLCSetsPerBank: p.LLCSetsPerBank, LLCWays: p.LLCWays,
		DirSetsPerBank: p.DirSetsPerBank, DirWays: p.DirWays,
		TLBEntries:  p.TLBEntries,
		NCRTEntries: p.NCRTEntries,
	}
	return m.withDefaults()
}
