package coherence

import (
	"raccd/internal/cache"
	"raccd/internal/mem"
	"raccd/internal/noc"
)

// --- non-coherent path (§III-C3) ---

// ncFill resolves a private-cache miss non-coherently: the request goes to
// the home LLC bank and, on an LLC miss, to memory — never to the directory.
func (h *Hierarchy) ncFill(c, tid int, b mem.Block, write bool, val uint64) (latency uint64) {
	home := h.bankOf(b)
	latency += h.mesh.Send(c, home, noc.Ctrl)
	latency += h.Params.LLCCycles
	h.Stats.LLCDemand++

	// §III-E transition coherent→non-coherent: if the block still has a
	// directory entry, deallocate it (recalling any stale L1 copies).
	// Inclusion puts an entry only beside a resident, coherent LLC line,
	// so no other line needs the directory probed. The recall touches
	// only L1s and Peeks the LLC, so probing the LLC first leaves its
	// replacement state as a probe after the recall would.
	lline, ok := h.llc[home].Lookup(b)
	if ok && !lline.NC {
		if entry, hasDir := h.dir.Peek(b); hasDir {
			h.recallSharers(entry, home, c)
			h.dir.Free(b)
			lline.NC = true
		}
	}

	var v uint64
	if ok {
		h.Stats.LLCDemandHits++
		v = lline.Val // after the recall, which may have written it back
	} else {
		// LLC miss: non-coherent request to memory.
		latency += h.Params.MemCycles
		v = h.store.Load(b)
		h.Stats.MemReads++
		victim, nl := h.llc[home].Insert(b)
		h.handleLLCVictim(home, victim)
		nl.State = cache.Shared // LLC-level placeholder state
		nl.NC = true
		nl.Val = v
	}

	// Data response carries the NC bit back to the private cache.
	latency += h.mesh.Send(home, c, noc.Data)
	victim, ln := h.l1[c].Insert(b)
	latency += h.handleL1Victim(c, victim)
	ln.State = cache.Exclusive
	ln.NC = true
	ln.Thread = uint8(tid)
	ln.Val = v
	if write {
		h.writeLine(c, b, ln, val)
	}
	return latency
}

// --- RaCCD coherence recovery (§III-C4) ---

// InvalidateNC executes raccd_invalidate on core c for hardware thread 0.
func (h *Hierarchy) InvalidateNC(c int) (latency uint64) {
	return h.InvalidateNCT(c, 0)
}

// InvalidateNCT executes raccd_invalidate for one SMT hardware thread: walk
// the private cache and flush every NC line whose thread-ID bits match —
// silently when clean, via a non-coherent writeback when dirty (§III-C4,
// §III-E). Returns the cycle cost of the blocking instruction. The thread's
// NCRT entries are cleared.
func (h *Hierarchy) InvalidateNCT(c, tid int) (latency uint64) {
	if h.Mode != RaCCD {
		return 0
	}
	h.Stats.RecoveryFlushes++
	latency = h.flushNC(c, tid)
	h.ncrts[c].Clear(tid)
	return latency
}

// flushNC is the NC-line walk of raccd_invalidate, behind InvalidateNCT:
// it flushes thread tid's NC lines from core c's private cache and
// returns its cost, one cycle per line walked (a sequential traversal)
// plus an L1 access per dirty line written back.
func (h *Hierarchy) flushNC(c, tid int) (latency uint64) {
	latency = uint64(h.l1[c].Capacity())
	h.l1[c].Walk(func(ln *cache.Line) {
		if !ln.NC || ln.Thread != uint8(tid) {
			return
		}
		h.Stats.FlushedNC++
		if ln.Dirty {
			h.Stats.FlushedNCDirty++
			h.writebackToLLC(c, ln.Block, ln.Val)
			latency += h.Params.L1HitCycles
		}
		ln.State = cache.Invalid
	})
	return latency
}
