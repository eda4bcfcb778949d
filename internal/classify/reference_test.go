package classify

import (
	"fmt"
	"math/rand"
	"testing"

	"raccd/internal/mem"
)

// refPT and refRO are the two classifiers Classifier replaced: PT's
// private→shared machine and PT-RO's, which kept a written-to bit per
// private page. Their logic is unchanged; their page states live in maps
// instead of the paged array, so they share no code with Classifier. They
// are the oracle TestClassifierMatchesReference holds Classifier to.

type refFlip struct {
	Page      mem.Page
	PrevOwner int
}

// refKind is a page's state, with the owner kept beside it while private.
type refKind int

const (
	refUnseen refKind = iota
	refPrivate
	refSharedRO
	refShared
)

type refPage struct {
	kind     refKind
	owner    int
	writable bool // refRO only
}

type refPT struct {
	states map[mem.Page]refPage
}

func (c *refPT) Access(core int, vp mem.Page) (nonCoherent bool, flip *refFlip) {
	switch st := c.states[vp]; {
	case st.kind == refShared:
		return false, nil
	case st.kind == refUnseen:
		c.states[vp] = refPage{kind: refPrivate, owner: core}
		return true, nil
	case st.owner == core:
		return true, nil
	default:
		// Second core: page becomes shared, forever.
		c.states[vp] = refPage{kind: refShared}
		return false, &refFlip{Page: vp, PrevOwner: st.owner}
	}
}

type refRO struct {
	states map[mem.Page]refPage
}

func (c *refRO) Access(core int, vp mem.Page, write bool) (nonCoherent bool, flip *refFlip) {
	st := c.states[vp]
	switch st.kind {
	case refShared:
		return false, nil
	case refSharedRO:
		if !write {
			return true, nil
		}
		// A write demotes the page to fully shared; every core may hold
		// untracked copies.
		c.states[vp] = refPage{kind: refShared}
		return false, &refFlip{Page: vp, PrevOwner: -1}
	case refUnseen:
		c.states[vp] = refPage{kind: refPrivate, owner: core, writable: write}
		return true, nil
	}
	owner := st.owner
	if owner == core {
		if write && !st.writable {
			st.writable = true
			c.states[vp] = st
		}
		return true, nil
	}
	// Second core touches a private page.
	if write {
		c.states[vp] = refPage{kind: refShared}
		return false, &refFlip{Page: vp, PrevOwner: owner}
	}
	// A read: the page becomes shared read-only and STAYS non-coherent;
	// the previous owner may hold dirty private copies that must reach
	// the LLC first.
	c.states[vp] = refPage{kind: refSharedRO}
	return true, &refFlip{Page: vp, PrevOwner: owner}
}

// stateOf decodes Classifier's state of vp into the reference's terms
// (without the written-to bit, which never affected an answer).
func (c *Classifier) stateOf(vp mem.Page) refPage {
	switch st := c.states.get(vp); st {
	case psUnseen:
		return refPage{kind: refUnseen}
	case psShared:
		return refPage{kind: refShared}
	case psSharedRO:
		return refPage{kind: refSharedRO}
	default:
		return refPage{kind: refPrivate, owner: privateOwner(st)}
	}
}

// TestClassifierMatchesReference replays seeded access streams through
// Classifier and the reference classifier of its mode, and requires the
// same (nonCoherent, flip) answer for every access and the same final
// state for every page. The streams mix owner-affine and random cores and
// reads with writes, over page sets that span several state chunks, so
// every transition of both machines is exercised many times.
func TestClassifierMatchesReference(t *testing.T) {
	shapes := []struct {
		cores, pages int
		affinity     float64 // probability that a page's home core accesses it
		writes       float64 // probability that an access is a write
	}{
		{2, 8, 0.5, 0.3},
		{4, 64, 0.9, 0.1},
		{16, 600, 0.95, 0.02},
		{16, 2000, 0.7, 0.5},
		{64, 5000, 0.99, 0.05},
	}
	const accessesPerShape = 25000
	for _, readOnly := range []bool{false, true} {
		for i, sh := range shapes {
			t.Run(fmt.Sprintf("readOnly=%v/cores=%d/pages=%d", readOnly, sh.cores, sh.pages), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(i) + 1))
				// Pages are scattered over a sparse range, some far above
				// the rest, so the paged state array grows both ways.
				pages := make([]mem.Page, sh.pages)
				for p := range pages {
					pages[p] = mem.Page(rng.Intn(4*sh.pages) + (p%3)*(1<<20))
				}
				home := make([]int, sh.pages)
				for p := range home {
					home[p] = rng.Intn(sh.cores)
				}
				c := New(readOnly)
				pt := &refPT{states: map[mem.Page]refPage{}}
				ro := &refRO{states: map[mem.Page]refPage{}}
				var toShared, toSharedRO, demotions int
				for n := 0; n < accessesPerShape; n++ {
					p := rng.Intn(sh.pages)
					core := home[p]
					if rng.Float64() >= sh.affinity {
						core = rng.Intn(sh.cores)
					}
					write := rng.Float64() < sh.writes
					vp := pages[p]

					nc, flip := c.Access(core, vp, write)
					var wantNC bool
					var want *refFlip
					if readOnly {
						wantNC, want = ro.Access(core, vp, write)
					} else {
						wantNC, want = pt.Access(core, vp)
					}
					if nc != wantNC || (flip == nil) != (want == nil) ||
						flip != nil && (flip.Page != want.Page || flip.PrevOwner != want.PrevOwner) {
						t.Fatalf("access %d (core %d, page %d, write %v): got (%v, %+v), reference (%v, %+v)",
							n, core, vp, write, nc, flip, wantNC, want)
					}
					switch {
					case flip == nil:
					case flip.PrevOwner == AllCores:
						demotions++
					case nc:
						toSharedRO++
					default:
						toShared++
					}
				}
				if toShared == 0 || readOnly && (toSharedRO == 0 || demotions == 0) {
					t.Fatalf("stream missed a transition: %d to shared, %d to sharedRO, %d demotions",
						toShared, toSharedRO, demotions)
				}
				ref := pt.states
				if readOnly {
					ref = ro.states
				}
				for _, vp := range pages {
					want := ref[vp]
					want.writable = false
					if got := c.stateOf(vp); got != want {
						t.Fatalf("page %d: final state %+v, reference %+v", vp, got, want)
					}
				}
			})
		}
	}
}
