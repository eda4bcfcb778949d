package classify

import (
	"testing"
	"testing/quick"

	"raccd/internal/mem"
)

func TestROFirstTouchPrivate(t *testing.T) {
	c := New(true)
	nc, flip := c.Access(0, 5, true)
	if !nc || flip != nil {
		t.Fatal("first touch must be private and flip-free")
	}
	if !c.IsPrivate(5) {
		t.Fatal("page not private")
	}
}

func TestROSecondReaderKeepsNonCoherent(t *testing.T) {
	c := New(true)
	c.Access(0, 5, false)
	nc, flip := c.Access(1, 5, false)
	if !nc {
		t.Fatal("second reader must stay non-coherent (shared read-only)")
	}
	if flip == nil || flip.PrevOwner != 0 {
		t.Fatalf("transition must flush the previous owner: %+v", flip)
	}
	if !c.IsSharedRO(5) {
		t.Fatal("page should be sharedRO")
	}
	// Further readers: NC, no more flips.
	nc, flip = c.Access(2, 5, false)
	if !nc || flip != nil {
		t.Fatal("third reader should be NC without a flip")
	}
}

func TestROWriteDemotesSharedRO(t *testing.T) {
	c := New(true)
	c.Access(0, 5, false)
	c.Access(1, 5, false) // sharedRO
	nc, flip := c.Access(2, 5, true)
	if nc {
		t.Fatal("write to sharedRO must be coherent")
	}
	if flip == nil || flip.PrevOwner != AllCores {
		t.Fatalf("demotion must flush all cores: %+v", flip)
	}
	if !c.IsShared(5) || c.IsSharedRO(5) {
		t.Fatal("page should be fully shared")
	}
}

func TestROSecondCoreWriteGoesStraightToShared(t *testing.T) {
	c := New(true)
	c.Access(0, 5, true)
	nc, flip := c.Access(1, 5, true)
	if nc {
		t.Fatal("second-core write must be coherent")
	}
	if flip == nil || flip.PrevOwner != 0 {
		t.Fatalf("flip must name the previous owner: %+v", flip)
	}
	if !c.IsShared(5) {
		t.Fatal("page should be shared")
	}
}

func TestROOwnerWritesKeepPrivate(t *testing.T) {
	c := New(true)
	c.Access(0, 5, false)
	nc, flip := c.Access(0, 5, true)
	if !nc || flip != nil {
		t.Fatal("owner write must stay private")
	}
	if !c.IsPrivate(5) {
		t.Fatal("page left private state")
	}
}

func TestRONeverBack(t *testing.T) {
	c := New(true)
	c.Access(0, 5, false)
	c.Access(1, 5, false)
	c.Access(1, 5, true) // demote
	for i := 0; i < 5; i++ {
		nc, flip := c.Access(1, 5, false)
		if nc || flip != nil {
			t.Fatal("shared page must stay coherent forever")
		}
	}
}

// Property: exactly one state holds per page at any time, and the state
// only moves forward (private → sharedRO → shared).
func TestQuickROStateMachine(t *testing.T) {
	rank := func(c *Classifier, p mem.Page) int {
		switch {
		case c.IsShared(p):
			return 3
		case c.IsSharedRO(p):
			return 2
		case c.IsPrivate(p):
			return 1
		}
		return 0
	}
	f := func(ops []uint8) bool {
		c := New(true)
		prev := map[mem.Page]int{}
		for _, op := range ops {
			core := int(op & 3)
			page := mem.Page(op >> 2 & 7)
			write := op&0x80 != 0
			c.Access(core, page, write)
			states := 0
			if c.IsPrivate(page) {
				states++
			}
			if c.IsSharedRO(page) {
				states++
			}
			if c.IsShared(page) {
				states++
			}
			if states != 1 {
				return false
			}
			r := rank(c, page)
			if r < prev[page] {
				return false
			}
			prev[page] = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
