package cache

import (
	"fmt"
	"math/bits"
)

// MaxWays is the widest associativity PLRU models: a set's ways-1 tree
// nodes must fit its one word.
const MaxWays = 16

// PLRU is the tree pseudo-LRU replacement state (Table I, "pseudoLRU") of
// a set-associative array; the caches and the directory both use it. A
// set's tree is one word: node n is bit n, its children are nodes 2n+1 and
// 2n+2, and a set bit points right, toward the half used less recently.
type PLRU struct {
	words  []uint16
	levels int
	// path[w] holds the nodes on way w's root-to-leaf path, and right[w]
	// those of them that touching w points right, away from w.
	path, right [MaxWays]uint16
}

// NewPLRU returns the replacement state of a sets × ways array, every
// node pointing left. ways must be a power of two no larger than MaxWays.
func NewPLRU(sets, ways int) PLRU {
	if ways <= 0 || ways > MaxWays || ways&(ways-1) != 0 {
		panic(fmt.Sprintf("cache: PLRU needs a power of two up to %d ways, got %d", MaxWays, ways))
	}
	p := PLRU{words: make([]uint16, sets), levels: bits.Len(uint(ways)) - 1}
	for way := 0; way < ways; way++ {
		for level := 0; level < p.levels; level++ {
			node := uint(1<<level - 1 + way>>(p.levels-level))
			p.path[way] |= 1 << node
			if way>>(p.levels-1-level)&1 == 0 {
				p.right[way] |= 1 << node
			}
		}
	}
	return p
}

// Touch makes way the most recently used of its set.
func (p *PLRU) Touch(set, way int) {
	p.words[set] = p.words[set]&^p.path[way] | p.right[way]
}

// Victim returns the way the set's tree points to, the pseudo-least
// recently used one.
func (p *PLRU) Victim(set int) int {
	word, way := p.words[set], 0
	for level := 0; level < p.levels; level++ {
		way = way<<1 | int(word>>(1<<level-1+way)&1)
	}
	return way
}
