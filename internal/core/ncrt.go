// Package core implements the RaCCD mechanism itself — the paper's primary
// contribution (§III): the per-core Non-Coherent Region Table (NCRT), the
// raccd_register virtual-to-physical translation and region-collapse
// algorithm (Fig 5), the raccd_invalidate coherence recovery, and the
// Adaptive Directory Reduction (ADR) controller (§III-D).
package core

import (
	"raccd/internal/mem"
	"raccd/internal/vm"
)

// NCRTStats counts NCRT events (§V-C overhead analysis).
type NCRTStats struct {
	Lookups   uint64
	Hits      uint64
	Registers uint64 // intervals successfully registered
	Overflows uint64 // intervals dropped because the table was full
	Clears    uint64
}

// NCRT is the Non-Coherent Region Table: a small per-core structure holding
// the physical address intervals of the executing task's inputs and outputs
// (Fig 4). Private-cache misses look it up to decide whether the request to
// the LLC is coherent or non-coherent.
//
// Entries are tagged with a hardware thread ID, the §III-E extension for
// SMT cores and multiprogramming: threads share the table's capacity
// concurrently, entries never need saving at a context switch, and recovery
// can target a single thread's regions.
type NCRT struct {
	capacity  int
	intervals []taggedInterval

	// LookupCycles is the delay the NCRT adds to every private-cache miss
	// (Table I: 1 cycle; §V-C studies 2, 3, 5 and 10).
	LookupCycles uint64

	Stats NCRTStats
}

type taggedInterval struct {
	iv  mem.Interval
	tid int
}

// NewNCRT returns an NCRT with the given entry capacity (Table I: 32).
func NewNCRT(capacity int) *NCRT {
	if capacity <= 0 {
		panic("core: NCRT capacity must be positive")
	}
	return &NCRT{capacity: capacity, LookupCycles: 1}
}

// Capacity returns the table size in entries.
func (n *NCRT) Capacity() int { return n.capacity }

// Len returns the number of registered intervals.
func (n *NCRT) Len() int { return len(n.intervals) }

// Intervals returns a copy of the registered intervals (tests, debugging).
func (n *NCRT) Intervals() []mem.Interval {
	out := make([]mem.Interval, 0, len(n.intervals))
	for _, e := range n.intervals {
		out = append(out, e.iv)
	}
	return out
}

// Lookup reports whether physical address pa falls in a region registered by
// hardware thread tid, and the cycles the probe cost.
func (n *NCRT) Lookup(pa mem.Addr, tid int) (nc bool, cycles uint64) {
	n.Stats.Lookups++
	for _, e := range n.intervals {
		if e.tid == tid && e.iv.Contains(pa) {
			n.Stats.Hits++
			return true, n.LookupCycles
		}
	}
	return false, n.LookupCycles
}

// insert adds one interval for tid, returning false on overflow. Adjacent or
// overlapping intervals of the same thread are merged with an existing
// entry when possible, so a region split by the iterative registration
// re-coalesces for free.
func (n *NCRT) insert(iv mem.Interval, tid int) bool {
	if iv.Empty() {
		return true
	}
	for i := range n.intervals {
		e := &n.intervals[i]
		if e.tid == tid && iv.Start <= e.iv.End && e.iv.Start <= iv.End {
			if iv.Start < e.iv.Start {
				e.iv.Start = iv.Start
			}
			if iv.End > e.iv.End {
				e.iv.End = iv.End
			}
			n.Stats.Registers++
			return true
		}
	}
	if len(n.intervals) >= n.capacity {
		n.Stats.Overflows++
		return false
	}
	n.intervals = append(n.intervals, taggedInterval{iv: iv, tid: tid})
	n.Stats.Registers++
	return true
}

// Clear removes the entries of one hardware thread (executed as part of
// raccd_invalidate, when that thread's task finishes).
func (n *NCRT) Clear(tid int) {
	out := n.intervals[:0]
	for _, e := range n.intervals {
		if e.tid != tid {
			out = append(out, e)
		}
	}
	n.intervals = out
	n.Stats.Clears++
}

// Register implements the raccd_register instruction for one task dependence
// (§III-C2, Fig 5): the virtual address range is traversed page by page,
// each page is translated through the core's TLB (paying TLB hit/walk
// cycles), contiguous physical pages are collapsed into a single interval,
// and each interval is inserted into the NCRT tagged with the issuing
// hardware thread. If the table fills up, the remaining intervals are simply
// not registered — accesses to them behave as in the baseline coherent
// architecture.
//
// It returns the total cycles of the iterative process.
func (n *NCRT) Register(r mem.Range, mmu *vm.MMU, tid int) (cycles uint64) {
	if r.Empty() {
		return 0
	}
	var cur mem.Interval
	flush := func() bool { // returns false when the NCRT overflowed
		ok := n.insert(cur, tid)
		cur = mem.Interval{}
		return ok
	}
	firstPage := mem.PageOf(r.Start)
	lastPage := mem.PageOf(r.End() - 1)
	for vp := firstPage; vp <= lastPage; vp++ {
		pp, c := mmu.TranslatePage(vp)
		cycles += c
		// Physical piece of this page covered by the range.
		pStart := pp.Addr()
		pEnd := pStart + mem.PageSize
		if vp == firstPage {
			pStart += r.Start - vp.Addr()
		}
		if vp == lastPage {
			pEnd = pp.Addr() + (r.End() - vp.Addr())
		}
		switch {
		case cur.Empty():
			cur = mem.Interval{Start: pStart, End: pEnd}
		case cur.End == pStart: // physically contiguous: collapse
			cur.End = pEnd
		default: // discontiguous: register the finished interval
			if !flush() {
				return cycles
			}
			cur = mem.Interval{Start: pStart, End: pEnd}
		}
		cycles++ // one cycle per NCRT-side iteration step
	}
	flush()
	return cycles
}
