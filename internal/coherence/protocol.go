package coherence

import (
	"raccd/internal/cache"
	"raccd/internal/classify"
	"raccd/internal/directory"
	"raccd/internal/mem"
	"raccd/internal/noc"
	"raccd/internal/trace"
)

// --- coherent path ---

// cohFill resolves a private-cache miss through the directory.
func (h *Hierarchy) cohFill(c int, b mem.Block, write bool, val uint64) (latency uint64) {
	home := h.bankOf(b)
	latency += h.mesh.Send(c, home, noc.Ctrl)
	latency += h.Params.LLCCycles // LLC + directory lookup overlap
	h.Stats.LLCDemand++

	h.noteDirAccess()
	entry, dirHit := h.dir.Lookup(b)
	if !dirHit {
		var lat uint64
		lat, entry = h.dirAllocate(c, b)
		latency += lat
	}

	// One LLC probe serves the whole fill: the NC-flag clear here and the
	// data read below. No code in between touches this set's replacement
	// state (writebacks only Peek), so probing early is observationally
	// identical to the historical Peek-then-Lookup pair.
	lline, llcHit := h.llc[home].Lookup(b)
	if llcHit {
		h.Stats.LLCDemandHits++
		// §III-E transition non-coherent→coherent: clear the NC flag.
		lline.NC = false
	}

	// If a remote core owns the block in E/M, forward the request.
	var v uint64
	haveData := false
	if entry.Owner != directory.NoOwner && entry.Owner != c {
		owner := entry.Owner
		if oln, ok := h.l1[owner].Peek(b); ok {
			latency += h.mesh.Send(home, owner, noc.Ctrl)
			latency += h.Params.L1HitCycles
			v = oln.Val
			haveData = true
			if write {
				// Read-for-ownership: owner invalidates.
				h.l1[owner].Invalidate(b)
				entry.RemoveSharer(owner)
				h.Stats.InvalidationsSent++
				latency += h.mesh.Send(owner, c, noc.Data) // cache-to-cache
			} else {
				// Downgrade M/E → S; dirty data written back to LLC.
				if oln.Dirty {
					h.writebackToLLC(owner, b, oln.Val)
					oln.Dirty = false
				}
				oln.State = cache.Shared
				latency += h.mesh.Send(owner, c, noc.Data)
			}
		} else {
			// Stale owner (silent eviction of E line): drop it.
			entry.RemoveSharer(owner)
		}
		entry.Owner = directory.NoOwner
	}

	if write {
		// Invalidate all remaining sharers.
		var worst uint64
		entry.EachSharer(func(s int) {
			if s == c {
				return
			}
			l := h.mesh.Send(home, s, noc.Ctrl)
			h.Stats.InvalidationsSent++
			if vln, ok := h.l1[s].Invalidate(b); ok && vln.Dirty {
				h.writebackToLLC(s, b, vln.Val)
				if !haveData {
					v = vln.Val
					haveData = true
				}
			}
			l += h.mesh.Send(s, home, noc.Ctrl)
			if l > worst {
				worst = l
			}
		})
		latency += worst
		entry.Sharers = 0
	}

	// Obtain the data from the LLC or memory if no owner forwarded it.
	if llcHit {
		if !haveData {
			v = lline.Val
			haveData = true
		} else {
			lline.Val = v // keep LLC consistent with forwarded data
		}
	} else {
		var fillVal uint64
		if haveData {
			fillVal = v
		} else {
			latency += h.Params.MemCycles
			fillVal = h.store.Load(b)
			h.Stats.MemReads++
			v = fillVal
			haveData = true
		}
		victim, nl := h.llc[home].Insert(b)
		h.handleLLCVictim(home, victim)
		nl.State = cache.Shared
		nl.Val = fillVal
		// The directory entry for b must survive the victim handling
		// (the victim cannot be b itself since b was absent).
	}

	// Deliver to the requesting L1.
	latency += h.mesh.Send(home, c, noc.Data)
	victim, ln := h.l1[c].Insert(b)
	latency += h.handleL1Victim(c, victim)
	// entry stays valid throughout: victim processing (dirAllocate,
	// handleLLCVictim, handleL1Victim) frees or rewrites only OTHER
	// blocks' slots — b was absent from every structure it is being
	// installed into, so no victim can alias it — and the entry array is
	// only reallocated by ADR resizes, which happen between accesses.
	entry.AddSharer(c)
	if write {
		entry.Owner = c
		ln.State = cache.Modified
	} else if entry.OnlySharer(c) {
		entry.Owner = c
		ln.State = cache.Exclusive
	} else {
		entry.Owner = directory.NoOwner
		ln.State = cache.Shared
	}
	ln.NC = false
	ln.Val = v
	if write {
		h.writeLine(c, b, ln, val)
	}
	return latency
}

// dirAllocate installs a directory entry for b, processing the capacity
// victim per the inclusion rules (invalidate LLC line + recall L1 copies).
// The returned entry is the freshly installed one; it is never nil.
func (h *Hierarchy) dirAllocate(c int, b mem.Block) (latency uint64, entry *directory.Entry) {
	victim, entry := h.dir.Allocate(b)
	if victim.Valid {
		h.Stats.DirVictimRecalls++
		h.event(trace.DirRecall, -1, victim.Block, 0)
		latency += h.processDirVictim(victim)
	}
	return latency, entry
}

// processDirVictim invalidates the victim's LLC line and recalls its L1
// copies. Dirty data ends up in memory (its LLC line is being invalidated).
func (h *Hierarchy) processDirVictim(victim directory.Entry) (latency uint64) {
	b := victim.Block
	home := h.bankOf(b)
	latency += h.recallSharers(&victim, home, -1)
	if lline, ok := h.llc[home].Invalidate(b); ok {
		if lline.Dirty {
			h.store.Store(b, lline.Val)
			h.Stats.MemWrites++
			h.mesh.Send(home, home, noc.Data) // memory writeback
		}
	}
	return latency
}

// recallSharers invalidates every L1 copy tracked by entry except skipCore,
// writing dirty data back into the LLC line (or memory if absent).
func (h *Hierarchy) recallSharers(entry *directory.Entry, home int, skipCore int) (latency uint64) {
	var worst uint64
	entry.EachSharer(func(s int) {
		if s == skipCore {
			return
		}
		l := h.mesh.Send(home, s, noc.Ctrl)
		h.Stats.InvalidationsSent++
		if vln, ok := h.l1[s].Invalidate(entry.Block); ok && vln.Dirty {
			h.writebackToLLC(s, entry.Block, vln.Val)
			l += h.Params.L1HitCycles
		}
		l += h.mesh.Send(s, home, noc.Ctrl)
		if l > worst {
			worst = l
		}
	})
	entry.Sharers = 0
	entry.Owner = directory.NoOwner
	return worst
}

// writebackToLLC writes a dirty L1 line's data into the LLC (or memory when
// the LLC line is absent) and accounts the data message.
func (h *Hierarchy) writebackToLLC(c int, b mem.Block, val uint64) {
	home := h.bankOf(b)
	h.mesh.Send(c, home, noc.Data)
	h.Stats.L1Writebacks++
	h.event(trace.Writeback, c, b, 0)
	if lline, ok := h.llc[home].Peek(b); ok {
		lline.Val = val
		lline.Dirty = true
		return
	}
	h.store.Store(b, val)
	h.Stats.MemWrites++
}

// handleL1Victim processes a line displaced from an L1 by a fill.
func (h *Hierarchy) handleL1Victim(c int, victim cache.Line) (latency uint64) {
	if victim.State == cache.Invalid {
		return 0
	}
	b := victim.Block
	if victim.Dirty {
		// Dirty writeback — non-coherent variant for NC lines (§III-C3),
		// same traffic either way.
		h.writebackToLLC(c, b, victim.Val)
	}
	if !victim.NC {
		// Clean coherent evictions are silent (Table I): the directory
		// keeps a stale sharer bit, dropped lazily on the next recall.
		// Dirty ones piggyback the sharer clear on the writeback.
		if victim.Dirty {
			if e, ok := h.dir.Peek(b); ok {
				e.RemoveSharer(c)
				if e.Owner == c {
					e.Owner = directory.NoOwner
				}
			}
		}
	}
	return 0
}

// handleLLCVictim processes a line displaced from an LLC bank by a fill.
// Coherent victims free their directory entry and recall L1 copies
// (inclusivity); NC victims write back to memory if dirty, silently else.
func (h *Hierarchy) handleLLCVictim(bank int, victim cache.Line) {
	if victim.State == cache.Invalid {
		return
	}
	b := victim.Block
	val := victim.Val
	dirty := victim.Dirty
	if !victim.NC {
		if entry, ok := h.dir.Peek(b); ok {
			h.Stats.LLCVictimRecalls++
			// Recall L1 copies; their dirty data goes to memory since
			// the LLC line is gone.
			entry.EachSharer(func(s int) {
				h.mesh.Send(bank, s, noc.Ctrl)
				h.Stats.InvalidationsSent++
				if vln, ok := h.l1[s].Invalidate(b); ok && vln.Dirty {
					h.mesh.Send(s, bank, noc.Data)
					h.Stats.L1Writebacks++
					val = vln.Val
					dirty = true
				}
			})
			h.dir.Free(b)
		}
	}
	if dirty {
		h.store.Store(b, val)
		h.Stats.MemWrites++
		h.mesh.Send(bank, bank, noc.Data)
	}
}

// --- PT flip flush ---

// ptFlipFlush flushes every block of the flipped page from the previous
// owner's private cache (§II-B: the OS "triggers a flush of the cache blocks
// and the TLB entries of the page in the first core").
func (h *Hierarchy) ptFlipFlush(c int, flip *classify.Flip) (latency uint64) {
	h.Stats.PTFlips++
	h.event(trace.PTFlip, c, 0, uint64(flip.Page))
	prev := flip.PrevOwner
	// The page's physical frame: translate without charging the TLB.
	pp, ok := h.pageTable.Lookup(flip.Page)
	if !ok {
		return 0
	}
	h.mmus[prev].TLB.Invalidate(flip.Page)
	latency += h.mesh.Send(c, prev, noc.Ctrl)
	first := pp.FirstBlock()
	for b := first; b < first+mem.BlocksPerPage; b++ {
		if vln, ok := h.l1[prev].Invalidate(b); ok {
			h.Stats.PTFlushedBlocks++
			latency++ // one cycle per flushed block
			if vln.Dirty {
				h.writebackToLLC(prev, b, vln.Val)
			}
		}
	}
	latency += h.mesh.Send(prev, c, noc.Ctrl)
	return latency
}

// roFlipFlush handles an ROClassifier transition: leaving private flushes
// the previous owner's copies of the page; leaving sharedRO (a write to a
// read-only page) flushes EVERY core, since shared read-only copies are
// untracked by the directory.
func (h *Hierarchy) roFlipFlush(c int, vp mem.Page, flip *classify.ROFlip) (latency uint64) {
	h.Stats.PTFlips++
	h.event(trace.PTFlip, c, 0, uint64(flip.Page))
	pp, ok := h.pageTable.Lookup(flip.Page)
	if !ok {
		return 0
	}
	flushCore := func(prev int) uint64 {
		var lat uint64
		h.mmus[prev].TLB.Invalidate(flip.Page)
		lat += h.mesh.Send(c, prev, noc.Ctrl)
		first := pp.FirstBlock()
		for b := first; b < first+mem.BlocksPerPage; b++ {
			if vln, ok := h.l1[prev].Invalidate(b); ok {
				h.Stats.PTFlushedBlocks++
				lat++
				if vln.Dirty {
					h.writebackToLLC(prev, b, vln.Val)
				}
			}
		}
		lat += h.mesh.Send(prev, c, noc.Ctrl)
		return lat
	}
	if flip.PrevOwner >= 0 {
		return flushCore(flip.PrevOwner)
	}
	// Write demotion: sweep every core in parallel; latency is the worst.
	var worst uint64
	for prev := range h.l1 {
		if l := flushCore(prev); l > worst {
			worst = l
		}
	}
	return worst
}

// --- ADR hook ---

func (h *Hierarchy) tickADR(bank int) {
	if h.adr == nil {
		return
	}
	before := h.dir.SetsPerBank()
	dropped, _ := h.adr.Tick()
	if h.dir.SetsPerBank() != before {
		h.event(trace.ADRResize, -1, 0, uint64(h.dir.SetsPerBank()))
	}
	for _, e := range dropped {
		h.Stats.ADRDropped++
		h.processDirVictim(e)
	}
}
