package cache

import (
	"math/bits"
	"math/rand"
	"testing"
)

// refPLRU is the reference tree pseudo-LRU: one byte per tree node, node
// n's children at 2n+1 and 2n+2, a node value pointing toward the half
// that was used less recently (1 = right). touch rewrites the nodes on
// the way's path one by one; victim follows them from the root.
type refPLRU struct {
	ways int
	bits []uint8 // ways-1 nodes per set
}

func newRefPLRU(sets, ways int) *refPLRU {
	return &refPLRU{ways: ways, bits: make([]uint8, sets*max(ways-1, 1))}
}

func (r *refPLRU) set(set int) []uint8 {
	n := max(r.ways-1, 1)
	return r.bits[set*n : (set+1)*n]
}

func (r *refPLRU) touch(set, way int) {
	if r.ways == 1 {
		return
	}
	nodes := r.set(set)
	node := 0
	levels := bits.Len(uint(r.ways)) - 1
	for level := 0; level < levels; level++ {
		bit := (way >> (levels - 1 - level)) & 1
		// Point the node away from the way just used.
		nodes[node] = uint8(1 - bit)
		node = 2*node + 1 + bit
	}
}

func (r *refPLRU) victim(set int) int {
	if r.ways == 1 {
		return 0
	}
	nodes := r.set(set)
	node, way := 0, 0
	levels := bits.Len(uint(r.ways)) - 1
	for level := 0; level < levels; level++ {
		b := int(nodes[node])
		way = way<<1 | b
		node = 2*node + 1 + b
	}
	return way
}

// TestPLRUMatchesReference drives the PLRU word and the reference tree
// with the same random touches and requires the same victim from every
// set after every step, for each associativity up to MaxWays.
func TestPLRUMatchesReference(t *testing.T) {
	const sets, steps = 8, 20000
	for _, ways := range []int{1, 2, 4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(ways)))
		p := NewPLRU(sets, ways)
		ref := newRefPLRU(sets, ways)
		for step := 0; step < steps; step++ {
			set := rng.Intn(sets)
			// Half the touches hit the current victim, as a fill does.
			way := rng.Intn(ways)
			if rng.Intn(2) == 0 {
				way = ref.victim(set)
			}
			p.Touch(set, way)
			ref.touch(set, way)
			for s := 0; s < sets; s++ {
				if got, want := p.Victim(s), ref.victim(s); got != want {
					t.Fatalf("%d ways, step %d (touched set %d way %d): set %d victim %d, reference %d",
						ways, step, set, way, s, got, want)
				}
			}
		}
	}
}
