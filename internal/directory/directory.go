// Package directory implements the sparse, banked coherence directory of the
// simulated machine (Table I: 32768 entries/bank in the full-scale machine,
// 8-way, pseudo-LRU, one bank per core tile).
//
// Each entry tracks one coherent cache block: which cores hold it (a sharer
// bit-vector — one 64-bit word, which is what caps the machine model at 64
// cores) and which core, if any, owns it exclusively. The directory is inclusive of the LLC for coherent blocks:
// evicting a directory entry forces the corresponding LLC line and all L1
// copies to be invalidated — the capacity-pressure mechanism that makes
// small directories catastrophic for the FullCoh baseline (Fig 6/7b).
//
// The number of sets per bank can be changed at run time while keeping
// associativity constant, which is exactly the reconfiguration the paper's
// Adaptive Directory Reduction performs with Gated-Vdd power gating. The
// resize policy itself (thresholds, hysteresis) lives in internal/core; this
// package provides the mechanism: rehash surviving entries, report the ones
// that no longer fit so the caller can invalidate them.
package directory

import (
	"fmt"
	"math/bits"

	"raccd/internal/cache"
	"raccd/internal/mem"
)

// Entry is one directory entry tracking a coherent block.
type Entry struct {
	Block   mem.Block
	Valid   bool
	Sharers uint64 // bit i set: core i holds the block in its L1
	Owner   int    // core holding E/M, or NoOwner
}

// NoOwner marks an entry whose block has no exclusive L1 owner.
const NoOwner = -1

// AddSharer records that core holds the block.
func (e *Entry) AddSharer(core int) { e.Sharers |= 1 << uint(core) }

// RemoveSharer records that core no longer holds the block.
func (e *Entry) RemoveSharer(core int) { e.Sharers &^= 1 << uint(core) }

// HasSharer reports whether core holds the block.
func (e *Entry) HasSharer(core int) bool { return e.Sharers&(1<<uint(core)) != 0 }

// NumSharers returns the number of cores holding the block.
func (e *Entry) NumSharers() int { return bits.OnesCount64(e.Sharers) }

// OnlySharer reports whether core is the unique sharer.
func (e *Entry) OnlySharer(core int) bool { return e.Sharers == 1<<uint(core) }

// EachSharer calls fn for every sharer core in ascending order.
func (e *Entry) EachSharer(fn func(core int)) {
	s := e.Sharers
	for s != 0 {
		c := bits.TrailingZeros64(s)
		fn(c)
		s &^= 1 << uint(c)
	}
}

// Stats counts directory events for Fig 7a/7d.
type Stats struct {
	Accesses    uint64 // every lookup or allocation probe
	Hits        uint64
	Misses      uint64
	Allocations uint64
	Evictions   uint64 // capacity evictions (drive LLC invalidations)
	Frees       uint64 // voluntary deallocations (LLC eviction of the block)
	Resizes     uint64
	ResizeDrops uint64 // entries dropped because they did not fit after resize

	// Occupancy integration for Fig 8: occupancy is sampled at every
	// access, weighted equally, so AvgOccupancy = OccAccum / Accesses.
	OccAccum uint64
}

// Directory is the banked sparse directory.
type Directory struct {
	banks       int
	ways        int
	setsPerBank int // current, power of two
	maxSets     int // sets per bank at full (1:1) size
	minSets     int // floor for ADR halving
	entries     []Entry
	plru        cache.PLRU
	used        cache.Footprint // the sets an entry has been installed in

	occupancy int
	Stats     Stats
}

// Config describes directory geometry.
type Config struct {
	Banks       int // one per tile; block→bank by low block bits
	Ways        int
	SetsPerBank int // initial sets per bank (power of two)
	MinSets     int // smallest sets/bank ADR may reach (power of two, >=1)
}

// New builds a directory. All geometry fields must be powers of two, and
// Ways at most cache.MaxWays.
func New(cfg Config) *Directory {
	if cfg.MinSets == 0 {
		cfg.MinSets = 1
	}
	for _, v := range []int{cfg.Banks, cfg.Ways, cfg.SetsPerBank, cfg.MinSets} {
		if v <= 0 || v&(v-1) != 0 {
			panic(fmt.Sprintf("directory: geometry must be positive powers of two: %+v", cfg))
		}
	}
	if cfg.MinSets > cfg.SetsPerBank {
		panic("directory: MinSets exceeds SetsPerBank")
	}
	d := &Directory{
		banks:       cfg.Banks,
		ways:        cfg.Ways,
		setsPerBank: cfg.SetsPerBank,
		maxSets:     cfg.SetsPerBank,
		minSets:     cfg.MinSets,
	}
	d.alloc()
	return d
}

func (d *Directory) alloc() {
	d.entries = entryArrays.Get(d.banks * d.setsPerBank * d.ways)
	d.plru = cache.NewPLRU(d.banks*d.setsPerBank, d.ways)
	d.used = cache.NewFootprint(d.banks * d.setsPerBank)
}

// entryArrays holds entry arrays released by finished directories, all
// zero, reused by the next directory built or resized to the same size.
var entryArrays mem.Recycler[Entry]

// Release clears the directory (Clear visits only the sets an entry was
// installed in) and hands the zeroed entry array to the next directory
// built with the same geometry. A later lookup or allocation panics
// rather than touch an array another directory may now own.
func (d *Directory) Release() {
	d.Clear()
	entryArrays.Put(d.entries)
	d.entries = nil
}

// Capacity returns the current total number of entries.
func (d *Directory) Capacity() int { return d.banks * d.setsPerBank * d.ways }

// MaxCapacity returns the design-time (1:1) entry count.
func (d *Directory) MaxCapacity() int { return d.banks * d.maxSets * d.ways }

// SetsPerBank returns the current number of sets in each bank.
func (d *Directory) SetsPerBank() int { return d.setsPerBank }

// Banks returns the number of banks.
func (d *Directory) Banks() int { return d.banks }

// Ways returns the associativity.
func (d *Directory) Ways() int { return d.ways }

// Occupancy returns the number of valid entries.
func (d *Directory) Occupancy() int { return d.occupancy }

// BankOf returns the home bank of a block (address-interleaved).
func (d *Directory) BankOf(b mem.Block) int { return int(uint64(b) & uint64(d.banks-1)) }

func (d *Directory) setIndex(b mem.Block) int {
	bank := d.BankOf(b)
	within := int((uint64(b) / uint64(d.banks)) & uint64(d.setsPerBank-1))
	return bank*d.setsPerBank + within
}

func (d *Directory) set(idx int) []Entry { return d.entries[idx*d.ways : (idx+1)*d.ways] }

func (d *Directory) sample() {
	d.Stats.Accesses++
	d.Stats.OccAccum += uint64(d.occupancy)
}

// Lookup probes the directory for block b, counting one access.
func (d *Directory) Lookup(b mem.Block) (*Entry, bool) {
	d.sample()
	idx := d.setIndex(b)
	set := d.set(idx)
	for w := range set {
		if set[w].Valid && set[w].Block == b {
			d.Stats.Hits++
			d.plru.Touch(idx, w)
			return &set[w], true
		}
	}
	d.Stats.Misses++
	return nil, false
}

// Peek returns the entry for b without counting an access.
func (d *Directory) Peek(b mem.Block) (*Entry, bool) {
	set := d.set(d.setIndex(b))
	for w := range set {
		if set[w].Valid && set[w].Block == b {
			return &set[w], true
		}
	}
	return nil, false
}

// Allocate installs an entry for block b, which must not be present. If the
// set is full a victim is evicted and returned; the caller must invalidate
// the victim's LLC line and recall its L1 copies (directory inclusivity).
// Allocation counts one access.
func (d *Directory) Allocate(b mem.Block) (victim Entry, entry *Entry) {
	d.sample()
	idx := d.setIndex(b)
	set := d.set(idx)
	way := -1
	for w := range set {
		if !set[w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = d.plru.Victim(idx)
		victim = set[way]
		d.Stats.Evictions++
		d.occupancy--
	}
	set[way] = Entry{Block: b, Valid: true, Owner: NoOwner}
	d.used.Mark(idx)
	d.plru.Touch(idx, way)
	d.Stats.Allocations++
	d.occupancy++
	return victim, &set[way]
}

// Free removes the entry for block b if present (used when the LLC evicts
// the block voluntarily, or when it transitions to non-coherent).
func (d *Directory) Free(b mem.Block) bool {
	set := d.set(d.setIndex(b))
	for w := range set {
		if set[w].Valid && set[w].Block == b {
			set[w] = Entry{}
			d.occupancy--
			d.Stats.Frees++
			return true
		}
	}
	return false
}

// Clear invalidates every entry (end-of-run drain). Entries live only in
// the sets marked in d.used, so it clears those and unmarks them.
func (d *Directory) Clear() {
	for s := d.used.Next(0); s >= 0; s = d.used.Next(s + 1) {
		clear(d.set(s))
	}
	d.used.Reset()
	d.occupancy = 0
}

// Walk visits every valid entry in set-major order, through the sets an
// entry has been installed in only.
func (d *Directory) Walk(fn func(*Entry)) {
	for s := d.used.Next(0); s >= 0; s = d.used.Next(s + 1) {
		set := d.set(s)
		for w := range set {
			if set[w].Valid {
				fn(&set[w])
			}
		}
	}
}

// AvgOccupancyFraction returns the access-weighted mean occupancy as a
// fraction of the CURRENT capacity (Fig 8 is measured at fixed 1:1 size).
func (d *Directory) AvgOccupancyFraction() float64 {
	if d.Stats.Accesses == 0 {
		return 0
	}
	return float64(d.Stats.OccAccum) / float64(d.Stats.Accesses) / float64(d.Capacity())
}

// CanHalve reports whether a halving resize is permitted.
func (d *Directory) CanHalve() bool { return d.setsPerBank > d.minSets }

// CanDouble reports whether a doubling resize is permitted.
func (d *Directory) CanDouble() bool { return d.setsPerBank < d.maxSets }

// Resize changes the number of sets per bank (power of two between MinSets
// and the construction-time maximum), rehashing surviving entries. Entries
// that do not fit under the new indexing are returned so the caller can
// invalidate the corresponding LLC lines and L1 copies, exactly like a
// capacity eviction. Mirrors §III-D: "the tag bit selection and the indexing
// function are updated, and the contents of the directory are moved".
func (d *Directory) Resize(newSetsPerBank int) (dropped []Entry) {
	if newSetsPerBank <= 0 || newSetsPerBank&(newSetsPerBank-1) != 0 {
		panic("directory: resize target must be a positive power of two")
	}
	if newSetsPerBank < d.minSets || newSetsPerBank > d.maxSets {
		panic(fmt.Sprintf("directory: resize target %d outside [%d,%d]", newSetsPerBank, d.minSets, d.maxSets))
	}
	if newSetsPerBank == d.setsPerBank {
		return nil
	}
	// The replaced arrays go to the garbage collector, not the recycler:
	// an ADR run passes through many sizes, and pooling each of them kept
	// more memory live than reusing them saved.
	old, oldUsed := d.entries, d.used
	d.setsPerBank = newSetsPerBank
	d.alloc()
	d.occupancy = 0
	d.Stats.Resizes++
	for s := oldUsed.Next(0); s >= 0; s = oldUsed.Next(s + 1) {
		for _, e := range old[s*d.ways : (s+1)*d.ways] {
			if e.Valid {
				dropped = d.replace(e, dropped)
			}
		}
	}
	return dropped
}

// replace re-installs e after a resize, or appends it to dropped when
// its new set is full.
func (d *Directory) replace(e Entry, dropped []Entry) []Entry {
	idx := d.setIndex(e.Block)
	set := d.set(idx)
	for w := range set {
		if !set[w].Valid {
			set[w] = e
			d.used.Mark(idx)
			d.plru.Touch(idx, w)
			d.occupancy++
			return dropped
		}
	}
	d.Stats.ResizeDrops++
	return append(dropped, e)
}
