package cpu

import "raccd/internal/mem"

// WindowSize is the OoO core's instruction-window depth: at most this many
// accesses may be outstanding before issue stalls on the oldest.
const WindowSize = 32

// depTableSize is the direct-mapped same-block dependence table: one slot
// per recent store, tagged by block. Power of two for cheap indexing.
const depTableSize = 256

// oooModel is a bounded-window out-of-order latency model. The core issues
// one access per compute cycles (its issue bandwidth) without waiting for
// the data, tracking each access's completion time in a WindowSize ring.
// Issue stalls only when
//
//   - the window is full: the slot being reused still holds an access that
//     has not completed (the classic reorder-buffer stall), or
//   - a same-block dependence forbids overlap: an access to a block whose
//     last store has not completed waits for it (RAW/WAW through memory —
//     block granularity, conservatively).
//
// Each Access charges the advance of the issue clock; DrainTask charges
// the gap between the issue clock and the latest outstanding completion,
// because a task boundary is a synchronization point (raccd_invalidate is
// a blocking instruction). Summed over a task this equals
// max(completion times, issue clock) — the overlapped execution time.
//
// The model is a pure function of the access/latency stream: no host
// state, no randomness, so every run reproduces it.
type oooModel struct {
	compute uint64

	clock   uint64 // issue clock within the current task
	maxDone uint64 // latest completion time issued this task
	ring    [WindowSize]uint64
	head    int

	// dep maps a block to the completion time of its last store, tagged
	// and generation-stamped so a task switch invalidates in O(1).
	depBlock [depTableSize]mem.Block
	depDone  [depTableSize]uint64
	depGen   [depTableSize]uint32
	gen      uint32

	stats Stats
}

func newOoO(compute uint64) *oooModel {
	return &oooModel{compute: compute, gen: 1}
}

func (m *oooModel) Name() string { return "ooo" }

func (m *oooModel) BeginTask(_ Issuer) {}

func (m *oooModel) Access(va mem.Addr, write bool, lat uint64) uint64 {
	m.stats.Accesses++
	start := m.clock
	// Window-limited: the ring slot about to be reused must have retired.
	if w := m.ring[m.head]; w > start {
		start = w
	}
	// Dependence-limited: wait for the last store to this block.
	b := mem.BlockOf(va)
	slot := int(uint64(b) & (depTableSize - 1))
	if m.depGen[slot] == m.gen && m.depBlock[slot] == b {
		if d := m.depDone[slot]; d > start {
			start = d
		}
	}
	done := start + lat
	m.ring[m.head] = done
	m.head = (m.head + 1) % WindowSize
	if done > m.maxDone {
		m.maxDone = done
	}
	if write {
		m.depBlock[slot] = b
		m.depDone[slot] = done
		m.depGen[slot] = m.gen
	}
	// The core occupies `compute` issue cycles per access, plus whatever
	// stall pushed the issue point past the current clock.
	charged := (start - m.clock) + m.compute
	m.clock = start + m.compute
	return charged
}

func (m *oooModel) DrainTask() uint64 {
	var drain uint64
	if m.maxDone > m.clock {
		drain = m.maxDone - m.clock
	}
	m.clock = 0
	m.maxDone = 0
	m.ring = [WindowSize]uint64{}
	m.head = 0
	m.gen++
	if m.gen == 0 { // generation wrap: invalidate the table for real
		m.depGen = [depTableSize]uint32{}
		m.gen = 1
	}
	return drain
}

func (m *oooModel) Stats() Stats { return m.stats }
