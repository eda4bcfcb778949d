package cache

import "math/bits"

// Footprint marks the sets of a set-associative array that have held a
// line or entry since the array was built or last cleared, one bit per
// set; the caches and the directory both use it. A walk over the marked
// sets costs the run's footprint, not the size of the machine. A set
// stays marked once emptied, so a walk still checks each line it visits.
type Footprint []uint64

// NewFootprint returns the footprint of an array of sets sets, none
// marked.
func NewFootprint(sets int) Footprint { return make(Footprint, (sets+63)/64) }

// Mark marks set.
func (f Footprint) Mark(set int) { f[set>>6] |= 1 << uint(set&63) }

// Next returns the first marked set at or after from, or -1 when there is
// none. It reads the marks as they are at the call, so a walk that calls
// it after each set visits, in ascending order, every set marked before
// the walk reaches it.
func (f Footprint) Next(from int) int {
	w := from >> 6
	if w >= len(f) {
		return -1
	}
	if rest := f[w] >> uint(from&63); rest != 0 {
		return from + bits.TrailingZeros64(rest)
	}
	for w++; w < len(f); w++ {
		if f[w] != 0 {
			return w<<6 + bits.TrailingZeros64(f[w])
		}
	}
	return -1
}

// Reset unmarks every set.
func (f Footprint) Reset() { clear(f) }
