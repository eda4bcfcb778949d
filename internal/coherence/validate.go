package coherence

import (
	"cmp"
	"fmt"
	"slices"

	"raccd/internal/cache"
	"raccd/internal/directory"
	"raccd/internal/mem"
)

// --- draining and validation ---

// DrainAll flushes every L1 and every LLC bank to memory, leaving the whole
// hierarchy empty. Used at end of run to validate final memory contents.
func (h *Hierarchy) DrainAll() {
	for c := range h.l1 {
		h.l1[c].Walk(func(ln *cache.Line) {
			if ln.Dirty {
				h.writebackToLLC(c, ln.Block, ln.Val)
			}
			ln.State = cache.Invalid
		})
	}
	for bank := range h.llc {
		h.llc[bank].Walk(func(ln *cache.Line) {
			if ln.Dirty {
				h.store.Store(ln.Block, ln.Val)
				h.Stats.MemWrites++
			}
			ln.State = cache.Invalid
		})
	}
	h.dir.Clear()
}

// VirtValue returns the final value of the block containing virtual address
// va, reading memory after DrainAll. Unmapped pages read as zero.
func (h *Hierarchy) VirtValue(va mem.Addr) uint64 {
	pp, ok := h.pageTable.Lookup(mem.PageOf(va))
	if !ok {
		return 0
	}
	pa := pp.Addr() | (va & (mem.PageSize - 1))
	return h.store.Load(mem.BlockOf(pa))
}

// NonCoherentFraction returns the Fig 2 metric: the fraction of touched
// blocks that were never accessed coherently.
func (h *Hierarchy) NonCoherentFraction() float64 {
	seen := h.store.SeenBlocks()
	if seen == 0 {
		return 0
	}
	return 1 - float64(h.store.CoherentBlocks())/float64(seen)
}

// --- invariant checking (used by tests) ---

// CheckInvariants verifies the protocol invariants described in the package
// comment: SWMR over the coherent L1 copies, then inclusion through the
// L1s, the LLC banks and the directory, in that order, and returns the
// first violation it meets. Its walks visit only the sets the caches and
// the directory have filled, so it costs the run's footprint. Validating
// runs (sim.Config.Validate) call it once their last task is done.
func (h *Hierarchy) CheckInvariants() error {
	// SWMR: at most one M/E copy per block; M/E excludes S copies. The
	// coherent L1 copies go into one slice, sorted so that each block's
	// copies are adjacent and blocks are checked in ascending order.
	type blockCopy struct {
		block mem.Block
		state cache.State
	}
	copies := make([]blockCopy, 0, len(h.l1)*h.l1[0].Capacity())
	for c := range h.l1 {
		h.l1[c].Walk(func(ln *cache.Line) {
			if !ln.NC { // NC copies are exempt by construction
				copies = append(copies, blockCopy{ln.Block, ln.State})
			}
		})
	}
	slices.SortFunc(copies, func(a, b blockCopy) int { return cmp.Compare(a.block, b.block) })
	for i := 0; i < len(copies); {
		b := copies[i].block
		var m, e, s int
		for ; i < len(copies) && copies[i].block == b; i++ {
			switch copies[i].state {
			case cache.Modified:
				m++
			case cache.Exclusive:
				e++
			case cache.Shared:
				s++
			}
		}
		if m+e > 1 {
			return fmt.Errorf("block %d: %d M + %d E copies", b, m, e)
		}
		if (m > 0 || e > 0) && s > 0 {
			return fmt.Errorf("block %d: M/E copy coexists with %d S copies", b, s)
		}
	}
	// Inclusion: coherent L1 line ⇒ LLC line ⇒ directory entry; NC lines
	// have no directory entry. The first error in tile order is reported.
	var err error
	for c := range h.l1 {
		h.l1[c].Walk(func(ln *cache.Line) {
			if err != nil || ln.NC {
				return
			}
			bank := h.bankOf(ln.Block)
			if _, ok := h.llc[bank].Peek(ln.Block); !ok {
				err = fmt.Errorf("coherent L1 line %d (core %d) missing from LLC", ln.Block, c)
				return
			}
			if _, ok := h.dir.Peek(ln.Block); !ok {
				err = fmt.Errorf("coherent L1 line %d (core %d) missing from directory", ln.Block, c)
			}
		})
		if err != nil {
			return err
		}
	}
	for bank := range h.llc {
		h.llc[bank].Walk(func(ln *cache.Line) {
			if err != nil {
				return
			}
			_, hasDir := h.dir.Peek(ln.Block)
			if ln.NC && hasDir {
				err = fmt.Errorf("NC LLC line %d has a directory entry", ln.Block)
			}
			if !ln.NC && !hasDir {
				err = fmt.Errorf("coherent LLC line %d has no directory entry", ln.Block)
			}
		})
		if err != nil {
			return err
		}
	}
	// Directory entries must correspond to LLC-resident blocks.
	h.dir.Walk(func(e *directory.Entry) {
		if err != nil {
			return
		}
		bank := h.bankOf(e.Block)
		if _, ok := h.llc[bank].Peek(e.Block); !ok {
			err = fmt.Errorf("directory entry for %d has no LLC line", e.Block)
		}
	})
	return err
}
