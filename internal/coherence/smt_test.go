package coherence

// Tests for the §III-E SMT extension: NCRT entries tagged with hardware
// thread IDs, per-line NC thread bits and selective per-thread recovery.

import (
	"testing"

	"raccd/internal/mem"
)

func TestSMTNCRTLookupPerThread(t *testing.T) {
	h := tiny(RaCCD)
	h.RegisterRegionT(0, 0, mem.Range{Start: 0x8000, Size: 4096})
	h.RegisterRegionT(0, 1, mem.Range{Start: 0x20000, Size: 4096})

	// Thread 0's region is non-coherent only for thread 0.
	h.AccessT(0, 0, 0x8000, false, 0)
	if h.Stats.NCFills != 1 {
		t.Fatalf("thread 0 access to own region not NC: %+v", h.Stats)
	}
	h.AccessT(0, 1, 0x8040, false, 0)
	if h.Stats.NCFills != 1 || h.Stats.CohFills != 1 {
		t.Fatalf("thread 1 access to thread 0's region was NC: %+v", h.Stats)
	}
	// Thread 1's own region is NC for thread 1.
	h.AccessT(0, 1, 0x20000, false, 0)
	if h.Stats.NCFills != 2 {
		t.Fatalf("thread 1 access to own region not NC: %+v", h.Stats)
	}
	mustOK(t, h)
}

func TestSMTSelectiveRecovery(t *testing.T) {
	h := tiny(RaCCD)
	h.RegisterRegionT(0, 0, mem.Range{Start: 0x8000, Size: 64})
	h.RegisterRegionT(0, 1, mem.Range{Start: 0x20000, Size: 64})
	h.AccessT(0, 0, 0x8000, true, 10)
	h.AccessT(0, 1, 0x20000, true, 11)
	if h.L1(0).ResidentNC() != 2 {
		t.Fatalf("expected 2 NC lines, have %d", h.L1(0).ResidentNC())
	}

	// Invalidate ONLY thread 1's data.
	h.InvalidateNCT(0, 1)
	if h.L1(0).ResidentNC() != 1 {
		t.Fatalf("selective recovery left %d NC lines, want 1", h.L1(0).ResidentNC())
	}
	pa0, _ := h.MMU(0).Translate(0x8000)
	if _, ok := h.L1(0).Peek(mem.BlockOf(pa0)); !ok {
		t.Fatal("thread 0's NC line was flushed by thread 1's recovery")
	}
	// Thread 0's NCRT entries must survive thread 1's clear.
	if nc, _ := h.NCRT(0).Lookup(pa0, 0); !nc {
		t.Fatal("thread 0's NCRT entry lost")
	}
	// Thread 1's dirty data must be visible downstream.
	h.InvalidateNCT(0, 0)
	h.DrainAll()
	if got := h.VirtValue(0x20000); got != 11 {
		t.Fatalf("thread 1's flushed value = %d, want 11", got)
	}
	if got := h.VirtValue(0x8000); got != 10 {
		t.Fatalf("thread 0's flushed value = %d, want 10", got)
	}
}

func TestSMTSharedNCRTCapacity(t *testing.T) {
	// Two threads share the 8-entry table of the tiny machine: with a
	// fragmented page table each page needs its own entry, so combined
	// registrations overflow where a per-thread table would not.
	h := New(RaCCD, Params{
		Cores: 4, L1Sets: 4, L1Ways: 2, LLCSetsPerBank: 8, LLCWays: 2,
		DirSetsPerBank: 8, DirWays: 2, DirMinSetsPerBank: 1,
		NCRTEntries: 4, NCRTLookupCycles: 1, TLBEntries: 16,
		L1HitCycles: 2, LLCCycles: 15, MemCycles: 160,
		Contiguity: 0.0, Seed: 11,
	})
	h.RegisterRegionT(0, 0, mem.Range{Start: 0, Size: 3 * mem.PageSize})
	h.RegisterRegionT(0, 1, mem.Range{Start: 0x100000, Size: 3 * mem.PageSize})
	if h.NCRT(0).Len() > 4 {
		t.Fatalf("NCRT exceeded shared capacity: %d", h.NCRT(0).Len())
	}
	if h.NCRT(0).Stats.Overflows == 0 {
		t.Skip("allocator produced contiguous pages; no overflow to observe")
	}
}
