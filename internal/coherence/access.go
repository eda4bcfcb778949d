package coherence

import (
	"raccd/internal/cache"
	"raccd/internal/mem"
	"raccd/internal/noc"
)

// --- main access path ---

// Access simulates one memory reference by core c (hardware thread 0) to
// virtual address va. For writes, val is the value stored (the task ID in
// this simulator). It returns the access latency in cycles.
func (h *Hierarchy) Access(c int, va mem.Addr, write bool, val uint64) (latency uint64) {
	return h.AccessT(c, 0, va, write, val)
}

// AccessT is Access for an SMT hardware thread: NCRT probes match only the
// issuing thread's registered regions, and non-coherent fills record the
// thread in the line's NC thread-ID bits (§III-E) so recovery can flush one
// thread's data selectively.
func (h *Hierarchy) AccessT(c, tid int, va mem.Addr, write bool, val uint64) (latency uint64) {
	h.Stats.Accesses++
	if h.adr != nil {
		h.adrCounter++
		if h.adrCounter&255 == 0 {
			h.tickADR(0)
		}
	}
	if write {
		h.Stats.Writes++
	} else {
		h.Stats.Reads++
	}
	pa, tcyc := h.mmus[c].Translate(va)
	latency += tcyc
	b := mem.BlockOf(pa)

	// Page-table classification happens with the TLB access, BEFORE the
	// private-cache probe: the private/shared bit lives in the TLB entry,
	// and PTRO write demotions must invalidate untracked read-only copies
	// even when the writer would otherwise hit its own stale NC line.
	nonCoh := false
	if h.classifier != nil {
		nc, flip := h.classifier.Access(c, mem.PageOf(va), write)
		nonCoh = nc
		if flip != nil {
			latency += h.flipFlush(c, flip)
		}
	}

	// L1 probe.
	latency += h.Params.L1HitCycles
	if ln, hit := h.l1[c].Lookup(b); hit {
		h.Stats.L1Hits++
		return latency + h.l1Hit(c, b, ln, write, val)
	}
	h.Stats.L1Misses++

	// RaCCD consults the NCRT only on private-cache misses (§III-C3).
	if h.Mode == RaCCD {
		nc, cyc := h.ncrts[c].Lookup(pa, tid)
		latency += cyc
		nonCoh = nc
	}

	h.store.Note(b, !nonCoh)

	if nonCoh {
		h.Stats.NCFills++
		latency += h.ncFill(c, tid, b, write, val)
	} else {
		h.Stats.CohFills++
		latency += h.cohFill(c, b, write, val)
	}
	return latency
}

// l1Hit handles a hit in the private cache.
func (h *Hierarchy) l1Hit(c int, b mem.Block, ln *cache.Line, write bool, val uint64) (latency uint64) {
	if !write {
		return 0
	}
	if ln.NC {
		// Non-coherent write: no directory involvement ever.
		h.writeLine(c, b, ln, val)
		return 0
	}
	switch ln.State {
	case cache.Modified:
		h.writeLine(c, b, ln, val)
	case cache.Exclusive:
		ln.State = cache.Modified // silent E→M
		h.writeLine(c, b, ln, val)
	case cache.Shared:
		latency += h.upgrade(c, b)
		ln.State = cache.Modified
		h.writeLine(c, b, ln, val)
	}
	return latency
}

// writeLine performs the actual store, honouring write-through mode.
func (h *Hierarchy) writeLine(c int, b mem.Block, ln *cache.Line, val uint64) {
	ln.Val = val
	if h.Params.WriteThrough {
		// Write-through: data goes to the LLC immediately; line stays
		// clean so its eviction is silent (§III-C3).
		home := h.bankOf(b)
		h.mesh.Send(c, home, noc.Data)
		if lline, ok := h.llc[home].Peek(b); ok {
			lline.Val = val
			lline.Dirty = true
		} else {
			// LLC line gone (possible for NC blocks): write memory.
			h.store.Store(b, val)
			h.Stats.MemWrites++
		}
		ln.Dirty = false
		return
	}
	ln.Dirty = true
}

// upgrade performs an S→M upgrade: invalidate all other sharers via the home
// directory bank.
func (h *Hierarchy) upgrade(c int, b mem.Block) (latency uint64) {
	h.Stats.Upgrades++
	home := h.bankOf(b)
	latency += h.mesh.Send(c, home, noc.Ctrl)
	h.noteDirAccess()
	entry, ok := h.dir.Lookup(b)
	latency += h.Params.LLCCycles // directory bank access
	if !ok {
		// Sharer state lost (e.g. an ADR resize dropped the entry while
		// this core still held the line in S): treat as a fresh
		// allocation. dirAllocate always returns the installed entry, so
		// the sharer walk below cannot dereference nil even when the
		// allocation itself had to evict a victim.
		var lat uint64
		lat, entry = h.dirAllocate(c, b)
		latency += lat
	}
	var worst uint64
	entry.EachSharer(func(s int) {
		if s == c {
			return
		}
		l := h.mesh.Send(home, s, noc.Ctrl)
		h.Stats.InvalidationsSent++
		if vln, ok := h.l1[s].Invalidate(b); ok && vln.Dirty {
			// Cannot happen for S lines in a correct protocol; guard
			// for robustness by writing the data back.
			h.writebackToLLC(s, b, vln.Val)
		}
		l += h.mesh.Send(s, home, noc.Ctrl) // ack
		if l > worst {
			worst = l
		}
	})
	latency += worst
	entry.Sharers = 0
	entry.AddSharer(c)
	entry.Owner = c
	latency += h.mesh.Send(home, c, noc.Ctrl) // upgrade grant
	return latency
}
