// Package coherence implements the simulated cache hierarchy and MESI
// directory protocol, with the non-coherent transaction variants that RaCCD
// and the PT baseline use to bypass the directory (§III-C3).
//
// Topology (Table I, capacity-scaled ÷16; see the scaling rule in
// docs/MACHINE.md): a tile per core — private write-back L1 data cache,
// one LLC bank and one directory bank — connected by a W×H mesh. The
// default geometry is the paper's 16 tiles on a 4×4 mesh; Params scales
// it (internal/machine holds the presets). Blocks are interleaved across
// banks by their low block-number bits.
//
// Inclusion invariants maintained for coherent blocks:
//
//	L1 copy  ⇒  LLC line  ⇒  directory entry
//
// so evicting a directory entry invalidates the LLC line and recalls every
// L1 copy (the capacity-pressure cliff of Fig 6/7b), and evicting an LLC
// line frees the directory entry and recalls L1 copies. Non-coherent blocks
// are tracked nowhere: they live in L1s (NC bit set) and the LLC (NC flag)
// with no directory entry at all.
//
// Every cache line carries a data value — the ID of the last task that wrote
// the block — which propagates through fills, forwards, writebacks and
// recoveries, so tests can validate the protocol end to end against a golden
// final-memory image.
package coherence

import (
	"fmt"
	"math/bits"
	"strings"

	"raccd/internal/cache"
	"raccd/internal/classify"
	"raccd/internal/core"
	"raccd/internal/directory"
	"raccd/internal/mem"
	"raccd/internal/noc"
	"raccd/internal/vm"
)

// Mode selects the coherence-deactivation scheme of a run (Fig 6/7 compare
// the three over the directory-size sweep).
type Mode uint8

const (
	// FullCoh tracks coherence for every memory access (baseline).
	FullCoh Mode = iota
	// PT deactivates coherence for pages classified private by the OS
	// page-table scheme of Cuesta et al. [5].
	PT
	// RaCCD deactivates coherence for task inputs/outputs registered by
	// the runtime system through the NCRT.
	RaCCD
	// PTRO extends PT with shared read-only detection (Cuesta et al.
	// [38], §VI-B): pages read by many cores but never written after
	// becoming shared also stay non-coherent.
	PTRO
)

// ParseMode is the inverse of Mode.String: it resolves the names used in
// figures, CSV rows, service requests and CLI flags ("FullCoh", "PT",
// "PT-RO" or "PTRO", "RaCCD"), in any case, back to a Mode.
func ParseMode(s string) (Mode, error) {
	switch {
	case strings.EqualFold(s, "FullCoh"):
		return FullCoh, nil
	case strings.EqualFold(s, "PT"):
		return PT, nil
	case strings.EqualFold(s, "PT-RO"), strings.EqualFold(s, "PTRO"):
		return PTRO, nil
	case strings.EqualFold(s, "RaCCD"):
		return RaCCD, nil
	}
	return 0, fmt.Errorf("coherence: unknown system %q (want FullCoh, PT, PT-RO or RaCCD)", s)
}

func (m Mode) String() string {
	switch m {
	case FullCoh:
		return "FullCoh"
	case PT:
		return "PT"
	case RaCCD:
		return "RaCCD"
	case PTRO:
		return "PT-RO"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Params configures the hierarchy geometry and latencies.
type Params struct {
	Cores int
	// MeshW, MeshH are the mesh dimensions in tiles; MeshW×MeshH must equal
	// Cores. Both 0 selects noc.DefaultMeshDims(Cores). Ring topologies
	// ignore them.
	MeshW, MeshH int

	L1Sets, L1Ways          int
	LLCSetsPerBank, LLCWays int
	DirSetsPerBank, DirWays int
	DirMinSetsPerBank       int
	NCRTEntries             int
	NCRTLookupCycles        uint64
	TLBEntries              int

	L1HitCycles uint64
	LLCCycles   uint64 // LLC bank access; directory lookup overlaps with it
	MemCycles   uint64

	// WriteThrough selects write-through L1s (§III-C3 discusses both;
	// default false = write-back).
	WriteThrough bool

	// Contiguity is the physical page allocator contiguity (see vm).
	Contiguity float64
	Seed       int64

	// NoCTopology selects the interconnect: "mesh" (default, Table I) or
	// "ring" (architectural ablation).
	NoCTopology string
}

// DefaultParams returns the ÷16-scaled machine of docs/MACHINE.md's
// scaling rule.
func DefaultParams() Params {
	return Params{
		Cores:             16,
		MeshW:             4,
		MeshH:             4,
		L1Sets:            64, // × 2 ways × 64 B = 8 KiB
		L1Ways:            2,
		LLCSetsPerBank:    256, // × 8 ways × 16 banks × 64 B = 2 MiB
		LLCWays:           8,
		DirSetsPerBank:    256, // 1:1 → 32768 entries
		DirWays:           8,
		DirMinSetsPerBank: 1,
		NCRTEntries:       32,
		NCRTLookupCycles:  1,
		TLBEntries:        64,
		L1HitCycles:       2,
		LLCCycles:         15,
		MemCycles:         160,
		Contiguity:        1.0,
		Seed:              1,
	}
}

// CheckGeometry reports whether the L1, LLC and directory arrays p
// describes can be built, naming the first field that cannot: every sets
// and ways count must be a positive power of two, and every ways count at
// most cache.MaxWays.
func (p Params) CheckGeometry() error {
	for _, f := range []struct {
		name string
		v    int
		ways bool
	}{
		{"L1Sets", p.L1Sets, false}, {"L1Ways", p.L1Ways, true},
		{"LLCSetsPerBank", p.LLCSetsPerBank, false}, {"LLCWays", p.LLCWays, true},
		{"DirSetsPerBank", p.DirSetsPerBank, false}, {"DirWays", p.DirWays, true},
	} {
		if f.v <= 0 || f.v&(f.v-1) != 0 {
			return fmt.Errorf("%s %d must be a positive power of two", f.name, f.v)
		}
		if f.ways && f.v > cache.MaxWays {
			return fmt.Errorf("%s %d exceeds the %d ways modelled", f.name, f.v, cache.MaxWays)
		}
	}
	return nil
}

// WithDirRatio returns a copy of p with the directory reduced by factor n
// (the paper's 1:N configurations). n must divide the 1:1 sets per bank.
func (p Params) WithDirRatio(n int) Params {
	if n <= 0 || p.DirSetsPerBank%n != 0 {
		panic(fmt.Sprintf("coherence: invalid directory ratio 1:%d", n))
	}
	p.DirSetsPerBank /= n
	return p
}

// Stats aggregates hierarchy-level events of one run.
type Stats struct {
	Accesses uint64
	Reads    uint64
	Writes   uint64

	L1Hits   uint64
	L1Misses uint64

	// LLCDemand counts demand lookups in the LLC (the denominator of the
	// Fig 7b hit ratio); writebacks and fills are excluded.
	LLCDemand     uint64
	LLCDemandHits uint64

	MemReads  uint64
	MemWrites uint64

	NCFills  uint64 // L1 misses served non-coherently
	CohFills uint64 // L1 misses served coherently

	Upgrades          uint64 // S→M upgrade transactions
	DirVictimRecalls  uint64 // directory capacity evictions processed
	LLCVictimRecalls  uint64 // coherent LLC evictions processed
	InvalidationsSent uint64 // sharer invalidation messages

	L1Writebacks uint64 // dirty L1 lines written back (coherent + NC)

	RecoveryFlushes uint64 // raccd_invalidate executions
	FlushedNC       uint64 // NC lines removed by recovery
	FlushedNCDirty  uint64 // of which dirty (written back)

	PTFlips         uint64 // PT private→shared page transitions
	PTFlushedBlocks uint64 // blocks flushed from the previous owner

	ADRDropped uint64 // entries invalidated by ADR shrink reconfigurations
}

// Hierarchy is the full simulated memory system for one run.
type Hierarchy struct {
	Mode   Mode
	Params Params

	l1   []*cache.Cache
	llc  []*cache.Cache // one bank per tile
	dir  *directory.Directory
	mesh *noc.Mesh
	// store holds the physical memory image (block → last writer value)
	// and the per-block seen/coherent bit-sets behind Fig 2, in paged
	// flat arrays — the per-access hot path never touches a map.
	store *mem.BlockStore

	pageTable    *vm.PageTable
	mmus         []*vm.MMU
	ncrts        []*core.NCRT
	classifier   *classify.Classifier
	roClassifier *classify.ROClassifier
	adr          *core.ADR

	// adrPeriod drives periodic occupancy-monitor evaluations from the
	// access stream (the monitor also runs on directory events).
	adrCounter uint64

	// DirAccessEnergyWeighted integrates per-access directory energy under
	// a time-varying capacity (ADR); the per-access cost is supplied by
	// EnergyPerDirAccess, set by the simulator.
	DirAccessEnergyWeighted float64
	EnergyPerDirAccess      func(capacityEntries int) float64

	Stats Stats
}

// New builds a hierarchy in the given mode.
func New(mode Mode, p Params) *Hierarchy {
	h := &Hierarchy{
		Mode:      mode,
		Params:    p,
		mesh:      noc.NewNet(noc.NewTopologyWH(p.NoCTopology, p.Cores, p.MeshW, p.MeshH)),
		store:     mem.NewBlockStore(),
		pageTable: vm.NewPageTable(p.Contiguity, p.Seed),
	}
	h.dir = directory.New(directory.Config{
		Banks:       p.Cores,
		Ways:        p.DirWays,
		SetsPerBank: p.DirSetsPerBank,
		MinSets:     p.DirMinSetsPerBank,
	})
	bankBits := uint(bits.Len(uint(p.Cores)) - 1)
	h.l1 = make([]*cache.Cache, p.Cores)
	h.llc = make([]*cache.Cache, p.Cores)
	h.mmus = make([]*vm.MMU, p.Cores)
	if mode == RaCCD {
		h.ncrts = make([]*core.NCRT, p.Cores)
	}
	// A tile's structures are a deterministic function of (i, p) and touch
	// nothing shared, so big machines construct their tiles across host
	// CPUs; order cannot affect results.
	parallelTiles(p.Cores, func(i int) {
		h.l1[i] = cache.New(p.L1Sets, p.L1Ways)
		h.llc[i] = cache.NewBanked(p.LLCSetsPerBank, p.LLCWays, bankBits)
		h.mmus[i] = vm.NewMMU(i, p.TLBEntries, h.pageTable)
		if mode == RaCCD {
			n := core.NewNCRT(p.NCRTEntries)
			n.LookupCycles = p.NCRTLookupCycles
			h.ncrts[i] = n
		}
	})
	if mode == PT {
		h.classifier = classify.New()
	}
	if mode == PTRO {
		h.roClassifier = classify.NewRO()
	}
	return h
}

// Release hands the L1, LLC and directory arrays to the next hierarchy
// built with the same geometry, so back-to-back runs reuse them. Call it
// once the run's metrics are collected: any later access panics rather
// than touch arrays another run may now own.
func (h *Hierarchy) Release() {
	for i := range h.l1 {
		h.l1[i].Release()
		h.llc[i].Release()
	}
	h.dir.Release()
}

// EnableADR attaches an Adaptive Directory Reduction controller (§III-D).
func (h *Hierarchy) EnableADR() *core.ADR {
	h.adr = core.NewADR(h.dir)
	return h.adr
}

// Dir exposes the directory for metric collection.
func (h *Hierarchy) Dir() *directory.Directory { return h.dir }

// Mesh exposes the NoC for metric collection.
func (h *Hierarchy) Mesh() *noc.Mesh { return h.mesh }

// PageTable exposes the shared page table.
func (h *Hierarchy) PageTable() *vm.PageTable { return h.pageTable }

// MMU returns core's MMU.
func (h *Hierarchy) MMU(c int) *vm.MMU { return h.mmus[c] }

// NCRT returns core's NCRT (RaCCD mode only, else nil).
func (h *Hierarchy) NCRT(c int) *core.NCRT {
	if h.Mode != RaCCD {
		return nil
	}
	return h.ncrts[c]
}

// Classifier returns the PT classifier (PT mode only, else nil).
func (h *Hierarchy) Classifier() *classify.Classifier { return h.classifier }

// L1 returns core's private cache (tests and recovery).
func (h *Hierarchy) L1(c int) *cache.Cache { return h.l1[c] }

// LLCBank returns bank i of the LLC.
func (h *Hierarchy) LLCBank(i int) *cache.Cache { return h.llc[i] }

func (h *Hierarchy) bankOf(b mem.Block) int { return h.dir.BankOf(b) }

// dirAccessEnergy integrates energy for one directory access at the current
// capacity (used by the ADR energy accounting).
func (h *Hierarchy) noteDirAccess() {
	if h.EnergyPerDirAccess != nil {
		h.DirAccessEnergyWeighted += h.EnergyPerDirAccess(h.dir.Capacity())
	}
}

// RegisterRegion executes raccd_register for one task dependence on core c
// (hardware thread 0) and returns its cycle cost. In non-RaCCD modes it is a
// no-op.
func (h *Hierarchy) RegisterRegion(c int, r mem.Range) (cycles uint64) {
	return h.RegisterRegionT(c, 0, r)
}

// RegisterRegionT is RegisterRegion for an SMT hardware thread (§III-E):
// the NCRT entry is tagged with tid so threads share the table without
// save/restore.
func (h *Hierarchy) RegisterRegionT(c, tid int, r mem.Range) (cycles uint64) {
	if h.Mode != RaCCD {
		return 0
	}
	return h.ncrts[c].Register(r, h.mmus[c], tid)
}
