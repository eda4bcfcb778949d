package classify

import "raccd/internal/mem"

// The classifier is consulted on EVERY simulated memory reference in the
// PT and PT-RO systems, so page state lives in lazily-allocated chunks of
// flat int32 slices indexed by virtual page — one shift, one mask and one
// load per access instead of one to three map probes.
const (
	psChunkBits = 9
	psChunkSize = 1 << psChunkBits
)

// Page state encoding. Private pages store owner+psPrivateBase, so the
// zero value means "never seen".
const (
	psUnseen   int32 = 0
	psShared   int32 = -1
	psSharedRO int32 = -2 // PT-RO only

	psPrivateBase int32 = 1
)

// pageStates is a sparse paged array of per-virtual-page classifier states,
// backed by the shared mem.PagedDir growth engine.
type pageStates struct {
	chunks mem.PagedDir[[psChunkSize]int32]
}

// get returns the state of vp (psUnseen when never set).
func (s *pageStates) get(vp mem.Page) int32 {
	ch := s.chunks.Get(uint64(vp) >> psChunkBits)
	if ch == nil {
		return psUnseen
	}
	return ch[vp&(psChunkSize-1)]
}

// set updates the state of vp, allocating its chunk on first use.
func (s *pageStates) set(vp mem.Page, v int32) {
	s.chunks.GetOrCreate(uint64(vp) >> psChunkBits)[vp&(psChunkSize-1)] = v
}

// privateOwner decodes a private state into its owning core.
func privateOwner(st int32) int { return int(st - psPrivateBase) }

// privateState encodes a private page owned by core.
func privateState(core int) int32 { return int32(core) + psPrivateBase }
