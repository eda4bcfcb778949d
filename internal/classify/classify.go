// Package classify implements the OS page-table/TLB private-shared data
// classification that the paper evaluates as the "PT" baseline for
// coherence deactivation (Cuesta et al. [5], §II-B), and its shared
// read-only extension PT-RO (Cuesta et al. [38], discussed in §VI-B).
//
// PT classifies at page granularity: a page is private on first touch; when
// a second core accesses it, the page flips to shared — triggering a flush
// of the page's cache blocks from the first core's private cache — and it
// never transitions back to private. That last property is PT's fundamental
// inaccuracy: temporarily-private data that migrates between cores under a
// dynamic task scheduler is classified shared forever, which is exactly the
// opportunity RaCCD recovers (Fig 2).
//
// PT-RO adds one state, sharedRO: pages read by several cores but not
// written since they left private stay non-coherent, recovering workloads
// like KNN whose large training set is shared read-only. The two state
// machines differ only in a second core's read of a private page:
//
//	PT:     private(owner) --other core accesses-----------------------> shared
//	PT-RO:  private(owner) --other core reads--> sharedRO --any write--> shared
//	        private(owner) --other core writes-------------------------> shared
//
// Transitions out of non-coherent states require flushing the page's cached
// blocks: from the previous owner on leaving private, and from every core on
// leaving sharedRO (copies are untracked, so all private caches must be
// swept). Once shared, a page never returns.
package classify

import "raccd/internal/mem"

// AllCores is the Flip.PrevOwner of a page leaving sharedRO: every core
// may hold an untracked copy.
const AllCores = -1

// Flip describes a transition that requires a cache flush: the coherence
// engine must flush the page's blocks from PrevOwner's private cache, or
// from every core's when PrevOwner is AllCores.
type Flip struct {
	Page      mem.Page // virtual page
	PrevOwner int
}

// Classifier tracks the sharing state of every virtual page in a paged
// flat state array (see pagestate.go).
type Classifier struct {
	states   pageStates
	readOnly bool
}

// New returns an empty classifier: PT's state machine, or PT-RO's when
// readOnly is set.
func New(readOnly bool) *Classifier { return &Classifier{readOnly: readOnly} }

// Access records an access by core to virtual page vp and returns whether
// the access may proceed non-coherently. When the access requires a flush
// (see the package doc), the flip is returned so the caller can flush the
// cached blocks the page's previous state left untracked.
func (c *Classifier) Access(core int, vp mem.Page, write bool) (nonCoherent bool, flip *Flip) {
	switch st := c.states.get(vp); {
	case st == psShared:
		return false, nil
	case st == psSharedRO:
		if !write {
			return true, nil
		}
		// A write demotes the page to fully shared; every core may hold
		// untracked copies.
		c.states.set(vp, psShared)
		return false, &Flip{Page: vp, PrevOwner: AllCores}
	case st == psUnseen:
		c.states.set(vp, privateState(core))
		return true, nil
	case privateOwner(st) == core:
		return true, nil
	case c.readOnly && !write:
		// PT-RO, a second core reads: the page becomes shared read-only
		// and STAYS non-coherent; the previous owner may hold dirty
		// private copies that must reach the LLC first.
		c.states.set(vp, psSharedRO)
		return true, &Flip{Page: vp, PrevOwner: privateOwner(st)}
	default:
		// A second core: the page becomes shared, forever.
		c.states.set(vp, psShared)
		return false, &Flip{Page: vp, PrevOwner: privateOwner(st)}
	}
}

// IsPrivate reports whether vp is currently classified private (to any core).
func (c *Classifier) IsPrivate(vp mem.Page) bool {
	return c.states.get(vp) > psUnseen
}

// IsSharedRO reports whether vp is shared read-only (PT-RO only).
func (c *Classifier) IsSharedRO(vp mem.Page) bool {
	return c.states.get(vp) == psSharedRO
}

// IsShared reports whether vp has flipped to shared.
func (c *Classifier) IsShared(vp mem.Page) bool {
	return c.states.get(vp) == psShared
}
