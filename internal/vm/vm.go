// Package vm models the virtual-memory substrate the RaCCD paper relies on:
// an OS page table with first-touch physical allocation, and per-core TLBs.
//
// The paper's full-system simulations observe that an unmodified Linux kernel
// allocates contiguous virtual pages of the benchmark data sets to contiguous
// physical pages, which lets raccd_register collapse a whole virtual range
// into one NCRT interval (Fig 5). PageTable reproduces that behaviour and
// exposes a Contiguity knob so the fragmented case can be exercised too.
//
// Both structures sit on the simulator's per-access hot path (one translation
// per simulated memory reference), so they are built from flat arrays rather
// than maps: the page table is a lazily-allocated paged slice indexed by
// virtual page, and the TLB is a fixed array scanned fully associatively with
// timestamp-based true-LRU replacement — behaviourally identical to the
// map+linked-list implementations they replaced.
package vm

import (
	"math/rand" //raccd:detsource-ok seeded from Params.Seed (part of the fingerprint); deterministic by construction

	"raccd/internal/mem"
)

// The page table's translations are stored in fixed-size chunks so sparse
// virtual address spaces (workload arenas start at 0x1000_0000) don't cost
// memory proportional to the highest page number.
const (
	ptChunkBits = 9
	ptChunkSize = 1 << ptChunkBits // pages per chunk
)

// ptChunk stores translations for ptChunkSize consecutive virtual pages,
// encoded as physical page + 1 so the zero value means "unmapped".
type ptChunk [ptChunkSize]mem.Page

// PageTable maps virtual pages to physical pages with first-touch
// allocation. The zero value is not usable; call NewPageTable.
type PageTable struct {
	chunks mem.PagedDir[ptChunk] // indexed by vp >> ptChunkBits
	mapped int
	next   mem.Page // next physical page for contiguous allocation
	// Contiguity is the probability that a freshly faulted page is placed
	// immediately after the previously allocated one. 1.0 reproduces the
	// Linux behaviour the paper reports; lower values fragment the
	// physical layout and force multi-interval NCRT registrations.
	contiguity float64
	rng        *rand.Rand // nil unless contiguity < 1, the only case allocate draws

	// Faults counts demand (first-touch) page allocations.
	Faults uint64
	// FaultHook, if non-nil, is invoked on every first-touch fault with
	// the faulting core and the virtual page. The PT classifier baseline
	// hooks page faults here, mirroring how the paper implements PT by
	// intercepting page faults in the simulator.
	FaultHook func(core int, vp mem.Page)
}

// NewPageTable returns a page table whose physical allocator starts at
// physical page 16 (keeping physical address 0 unused aids debugging) and
// places pages contiguously with the given probability. seed makes the
// fragmented layout deterministic.
func NewPageTable(contiguity float64, seed int64) *PageTable {
	pt := &PageTable{next: 16, contiguity: contiguity}
	if contiguity < 1.0 {
		pt.rng = rand.New(rand.NewSource(seed))
	}
	return pt
}

// Translate returns the physical page for virtual page vp, faulting it in on
// first touch. core identifies the accessing core for the fault hook.
func (pt *PageTable) Translate(core int, vp mem.Page) mem.Page {
	if ch := pt.chunks.Get(uint64(vp) >> ptChunkBits); ch != nil {
		if enc := ch[vp&(ptChunkSize-1)]; enc != 0 {
			return enc - 1
		}
	}
	return pt.fault(core, vp)
}

// fault services a first-touch page fault for vp.
func (pt *PageTable) fault(core int, vp mem.Page) mem.Page {
	pp := pt.allocate()
	pt.chunks.GetOrCreate(uint64(vp) >> ptChunkBits)[vp&(ptChunkSize-1)] = pp + 1
	pt.mapped++
	pt.Faults++
	if pt.FaultHook != nil {
		pt.FaultHook(core, vp)
	}
	return pp
}

// Lookup returns the physical page for vp without faulting.
func (pt *PageTable) Lookup(vp mem.Page) (mem.Page, bool) {
	ch := pt.chunks.Get(uint64(vp) >> ptChunkBits)
	if ch == nil {
		return 0, false
	}
	enc := ch[vp&(ptChunkSize-1)]
	if enc == 0 {
		return 0, false
	}
	return enc - 1, true
}

// Mapped returns the number of mapped pages.
func (pt *PageTable) Mapped() int { return pt.mapped }

func (pt *PageTable) allocate() mem.Page {
	if pt.contiguity < 1.0 && pt.rng.Float64() >= pt.contiguity {
		// Fragment: skip a random gap of 1..8 pages.
		pt.next += mem.Page(1 + pt.rng.Intn(8))
	}
	pp := pt.next
	pt.next++
	return pp
}

// TranslateAddr translates a full virtual address to a physical address,
// faulting the page in if needed.
func (pt *PageTable) TranslateAddr(core int, va mem.Addr) mem.Addr {
	pp := pt.Translate(core, mem.PageOf(va))
	return pp.Addr() | (va & (mem.PageSize - 1))
}

// TLB is a fully-associative translation lookaside buffer with true-LRU
// replacement, one per core (Table I: fully associative, 1-cycle access).
// It caches virtual-to-physical page translations; the backing page table
// provides fills on a miss.
//
// Entries live in parallel fixed arrays; recency is a monotonic timestamp
// per entry (stamp 0 marks a free slot), so a probe is a linear scan over
// at most capacity page numbers and an eviction picks the minimum stamp —
// exactly true LRU, with no per-access allocation.
type TLB struct {
	capacity int
	vps      []mem.Page
	pps      []mem.Page
	stamps   []uint64
	live     int
	clock    uint64

	// Statistics.
	Hits, Misses, Evictions uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("vm: TLB capacity must be positive")
	}
	return &TLB{
		capacity: capacity,
		vps:      make([]mem.Page, capacity),
		pps:      make([]mem.Page, capacity),
		stamps:   make([]uint64, capacity),
	}
}

// find returns the slot holding vp, or -1.
func (t *TLB) find(vp mem.Page) int {
	for i, v := range t.vps {
		if v == vp && t.stamps[i] != 0 {
			return i
		}
	}
	return -1
}

// Lookup probes the TLB for virtual page vp. On a hit it returns the
// physical page and hit=true, and refreshes recency. It never fills.
func (t *TLB) Lookup(vp mem.Page) (pp mem.Page, hit bool) {
	pp, _, hit = t.lookupIdx(vp)
	return pp, hit
}

// lookupIdx is Lookup returning the hit slot for the MMU's fast path.
func (t *TLB) lookupIdx(vp mem.Page) (pp mem.Page, idx int, hit bool) {
	i := t.find(vp)
	if i < 0 {
		t.Misses++
		return 0, -1, false
	}
	t.Hits++
	t.clock++
	t.stamps[i] = t.clock
	return t.pps[i], i, true
}

// hitAt re-validates a previously returned slot against vp and, when it
// still holds that translation, refreshes recency and counts a hit. This is
// the MMU's O(1) last-translation fast path: a stale slot (evicted,
// invalidated or recycled since) simply fails the check and the caller
// falls back to the full probe.
func (t *TLB) hitAt(idx int, vp mem.Page) bool {
	if idx < 0 || t.vps[idx] != vp || t.stamps[idx] == 0 {
		return false
	}
	t.Hits++
	t.clock++
	t.stamps[idx] = t.clock
	return true
}

// Insert fills a translation, evicting the LRU entry if the TLB is full.
// It returns the slot filled or refreshed.
func (t *TLB) Insert(vp, pp mem.Page) int {
	if i := t.find(vp); i >= 0 {
		t.pps[i] = pp
		t.clock++
		t.stamps[i] = t.clock
		return i
	}
	slot := -1
	if t.live >= t.capacity {
		// Evict the entry with the oldest stamp (true LRU).
		min := t.stamps[0]
		slot = 0
		for i := 1; i < t.capacity; i++ {
			if t.stamps[i] < min {
				min = t.stamps[i]
				slot = i
			}
		}
		t.Evictions++
		t.live--
	} else {
		for i, s := range t.stamps {
			if s == 0 {
				slot = i
				break
			}
		}
	}
	t.vps[slot] = vp
	t.pps[slot] = pp
	t.clock++
	t.stamps[slot] = t.clock
	t.live++
	return slot
}

// Invalidate removes the translation for vp if present.
func (t *TLB) Invalidate(vp mem.Page) {
	if i := t.find(vp); i >= 0 {
		t.stamps[i] = 0
		t.live--
	}
}

// InvalidateAll flushes the TLB.
func (t *TLB) InvalidateAll() {
	for i := range t.stamps {
		t.stamps[i] = 0
	}
	t.live = 0
}

// Len returns the number of resident translations.
func (t *TLB) Len() int { return t.live }

// Capacity returns the TLB size in entries.
func (t *TLB) Capacity() int { return t.capacity }

// MMU bundles a core's TLB with the shared page table and models the access
// costs: a TLB hit costs HitCycles, a miss adds WalkCycles for the page walk.
type MMU struct {
	Core int
	TLB  *TLB
	PT   *PageTable

	// HitCycles is the TLB access latency (Table I: 1 cycle).
	HitCycles uint64
	// WalkCycles is the page-table walk penalty on a TLB miss.
	WalkCycles uint64

	// Last-translation fast path: the TLB slot that served the previous
	// translation. Memory references stream through pages (64 blocks per
	// page), so re-validating one slot short-circuits the associative
	// probe on the overwhelmingly common same-page access. Timing and
	// statistics are identical to the full probe.
	lastVP  mem.Page
	lastIdx int
}

// NewMMU builds an MMU for the given core over a shared page table.
func NewMMU(core int, tlbEntries int, pt *PageTable) *MMU {
	return &MMU{Core: core, TLB: NewTLB(tlbEntries), PT: pt, HitCycles: 1, WalkCycles: 40, lastIdx: -1}
}

// translatePage resolves vp through the fast path, the TLB, then the page
// table, charging the modelled cycles.
func (m *MMU) translatePage(vp mem.Page) (pp mem.Page, cycles uint64) {
	if vp == m.lastVP && m.TLB.hitAt(m.lastIdx, vp) {
		return m.TLB.pps[m.lastIdx], m.HitCycles
	}
	pp, idx, hit := m.TLB.lookupIdx(vp)
	cycles = m.HitCycles
	if !hit {
		cycles += m.WalkCycles
		pp = m.PT.Translate(m.Core, vp)
		idx = m.TLB.Insert(vp, pp)
	}
	m.lastVP, m.lastIdx = vp, idx
	return pp, cycles
}

// Translate translates virtual address va, returning the physical address
// and the cycles spent in translation (TLB probe plus walk on a miss).
func (m *MMU) Translate(va mem.Addr) (pa mem.Addr, cycles uint64) {
	pp, cycles := m.translatePage(mem.PageOf(va))
	return pp.Addr() | (va & (mem.PageSize - 1)), cycles
}

// TranslatePage translates a virtual page, modelling the same costs.
func (m *MMU) TranslatePage(vp mem.Page) (pp mem.Page, cycles uint64) {
	return m.translatePage(vp)
}
