// Package cache implements the set-associative cache structure used for the
// private L1 data caches and the shared LLC banks of the simulated machine.
//
// Lines carry a MESI state, a dirty bit, a Non-Coherent (NC) bit — the per-
// block bit RaCCD adds to the private data caches (Fig 4) — and a data value.
// The data value is the ID of the last task that wrote the block; it flows
// through the hierarchy with the block so integration tests can validate the
// protocol end to end against a golden final memory image.
//
// Replacement is tree pseudo-LRU, matching Table I ("pseudoLRU").
package cache

import (
	"fmt"

	"raccd/internal/mem"
)

// State is a MESI cache-line state.
type State uint8

// MESI states. Invalid lines are not resident.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one cache line. A line is resident iff State != Invalid.
type Line struct {
	Block mem.Block // physical block number (full tag)
	State State
	Dirty bool
	// NC marks a non-coherent block: one filled via a non-coherent
	// response while its address range was registered in the NCRT (RaCCD)
	// or while its page was classified private (PT).
	NC bool
	// Thread holds the SMT hardware-thread ID that filled an NC line
	// (§III-E: "1/2/3 extra bits for 2/4/8-way SMT cores"), so recovery
	// can selectively invalidate one thread's non-coherent data.
	Thread uint8
	// Val is the data value: the ID of the last writing task, or 0 for
	// untouched memory.
	Val uint64
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64 // capacity/conflict evictions (not invalidations)
	Fills      uint64
	Invalidate uint64 // externally forced invalidations
}

// Cache is a set-associative, physically indexed, physically tagged cache.
type Cache struct {
	sets       int
	ways       int
	indexShift uint   // block bits dropped before set indexing (bank bits)
	lines      []Line // sets*ways, laid out set-major
	plru       PLRU
	used       Footprint // the sets Insert has filled

	Stats Stats
}

// New returns a cache with the given geometry. sets and ways must be powers
// of two (ways up to MaxWays, enough for the 8-way structures in Table I).
func New(sets, ways int) *Cache {
	return NewBanked(sets, ways, 0)
}

// NewBanked returns a cache that serves one bank of an address-interleaved
// structure: the low indexShift block bits select the bank and must be
// dropped before set indexing, otherwise only 1/2^indexShift of the sets
// would ever be used.
func NewBanked(sets, ways int, indexShift uint) *Cache {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 || ways&(ways-1) != 0 {
		panic(fmt.Sprintf("cache: geometry must be positive powers of two, got %d sets × %d ways", sets, ways))
	}
	return &Cache{
		sets:       sets,
		ways:       ways,
		indexShift: indexShift,
		lines:      lineArrays.Get(sets * ways),
		plru:       NewPLRU(sets, ways),
		used:       NewFootprint(sets),
	}
}

// lineArrays holds line arrays released by finished caches, all zero,
// reused by the next cache of the same geometry.
var lineArrays mem.Recycler[Line]

// Release clears the sets Insert has filled, which hold every line the
// cache ever wrote, and hands the zeroed line array to the next cache
// built with the same geometry: a run pays for its footprint, not for the
// cache's capacity. A later lookup or fill panics rather than touch an
// array another cache may now own.
func (c *Cache) Release() {
	for s := c.used.Next(0); s >= 0; s = c.used.Next(s + 1) {
		clear(c.set(s))
	}
	c.used.Reset()
	lineArrays.Put(c.lines)
	c.lines = nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Capacity returns the total number of lines.
func (c *Cache) Capacity() int { return c.sets * c.ways }

// SizeBytes returns the data capacity in bytes.
func (c *Cache) SizeBytes() int { return c.Capacity() * mem.BlockSize }

func (c *Cache) setIndex(b mem.Block) int {
	return int((uint64(b) >> c.indexShift) & uint64(c.sets-1))
}

func (c *Cache) set(idx int) []Line { return c.lines[idx*c.ways : (idx+1)*c.ways] }

// Lookup probes the cache for block b. On a hit it returns the resident line
// and refreshes replacement state; callers mutate the line in place.
func (c *Cache) Lookup(b mem.Block) (*Line, bool) {
	idx := c.setIndex(b)
	set := c.set(idx)
	for w := range set {
		if set[w].State != Invalid && set[w].Block == b {
			c.Stats.Hits++
			c.plru.Touch(idx, w)
			return &set[w], true
		}
	}
	c.Stats.Misses++
	return nil, false
}

// Peek returns the line for block b without touching statistics or
// replacement state. Used by invariant checks and external probes.
func (c *Cache) Peek(b mem.Block) (*Line, bool) {
	set := c.set(c.setIndex(b))
	for w := range set {
		if set[w].State != Invalid && set[w].Block == b {
			return &set[w], true
		}
	}
	return nil, false
}

// Insert fills block b, choosing a victim by PLRU if the set is full.
// It returns the evicted line (State != Invalid when a victim was displaced)
// and a pointer to the freshly installed line, which the caller initialises.
// Insert must not be called while b is already resident.
func (c *Cache) Insert(b mem.Block) (victim Line, line *Line) {
	idx := c.setIndex(b)
	set := c.set(idx)
	way := -1
	for w := range set {
		if set[w].State == Invalid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.plru.Victim(idx)
		victim = set[way]
		c.Stats.Evictions++
	}
	set[way] = Line{Block: b, State: Invalid}
	c.used.Mark(idx)
	c.plru.Touch(idx, way)
	c.Stats.Fills++
	return victim, &set[way]
}

// Invalidate removes block b if resident, returning the removed line so the
// caller can handle dirty data. The second result reports residency.
func (c *Cache) Invalidate(b mem.Block) (Line, bool) {
	set := c.set(c.setIndex(b))
	for w := range set {
		if set[w].State != Invalid && set[w].Block == b {
			ln := set[w]
			set[w] = Line{}
			c.Stats.Invalidate++
			return ln, true
		}
	}
	return Line{}, false
}

// Walk calls fn for every resident line. fn may mutate the line; setting its
// State to Invalid removes it. Iteration order is set-major and stable. It
// visits only the sets Insert has filled, so it costs the cache's
// footprint, not its capacity.
func (c *Cache) Walk(fn func(*Line)) {
	for s := c.used.Next(0); s >= 0; s = c.used.Next(s + 1) {
		set := c.set(s)
		for w := range set {
			if set[w].State != Invalid {
				fn(&set[w])
			}
		}
	}
}

// Resident returns the number of valid lines, scanning every line.
func (c *Cache) Resident() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			n++
		}
	}
	return n
}

// ResidentNC returns the number of valid lines with the NC bit set.
func (c *Cache) ResidentNC() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State != Invalid && c.lines[i].NC {
			n++
		}
	}
	return n
}
