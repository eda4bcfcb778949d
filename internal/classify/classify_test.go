package classify

import (
	"testing"
	"testing/quick"

	"raccd/internal/mem"
)

func TestFirstTouchPrivate(t *testing.T) {
	c := New(false)
	nc, flip := c.Access(3, 10, false)
	if !nc || flip != nil {
		t.Fatalf("first touch: nc=%v flip=%v, want true,nil", nc, flip)
	}
	if !c.IsPrivate(10) || c.IsShared(10) {
		t.Fatal("page should be private after first touch")
	}
}

func TestSameCoreStaysPrivate(t *testing.T) {
	c := New(false)
	c.Access(3, 10, false)
	for i := 0; i < 5; i++ {
		nc, flip := c.Access(3, 10, false)
		if !nc || flip != nil {
			t.Fatal("repeat access by owner must stay private")
		}
	}
	if !c.IsPrivate(10) {
		t.Fatal("no flip expected")
	}
}

func TestSecondCoreFlips(t *testing.T) {
	c := New(false)
	c.Access(3, 10, false)
	nc, flip := c.Access(4, 10, false)
	if nc {
		t.Fatal("second core access must be coherent")
	}
	if flip == nil || flip.Page != 10 || flip.PrevOwner != 3 {
		t.Fatalf("flip = %+v, want page 10 owner 3", flip)
	}
	if !c.IsShared(10) || c.IsPrivate(10) {
		t.Fatal("page should be shared after flip")
	}
}

func TestNeverBackToPrivate(t *testing.T) {
	// The key PT inaccuracy: once shared, always shared, even if only one
	// core keeps accessing it afterwards (temporarily private data).
	c := New(false)
	c.Access(0, 7, false)
	c.Access(1, 7, false) // flip
	for i := 0; i < 10; i++ {
		nc, flip := c.Access(1, 7, false)
		if nc || flip != nil {
			t.Fatal("shared page produced non-coherent access or a second flip")
		}
	}
}

func TestIndependentPages(t *testing.T) {
	c := New(false)
	c.Access(0, 1, false)
	c.Access(1, 2, false)
	if !c.IsPrivate(1) || !c.IsPrivate(2) {
		t.Fatal("distinct pages touched by distinct cores must both be private")
	}
	if c.IsShared(1) || c.IsShared(2) {
		t.Fatal("no page touched by one core may be shared")
	}
}

func TestFlipAccounting(t *testing.T) {
	c := New(false)
	for p := mem.Page(0); p < 8; p++ {
		c.Access(int(p%4), p, false)
	}
	flips := 0
	for p := mem.Page(0); p < 8; p++ {
		if _, flip := c.Access(int(p%4)+4, p, false); flip != nil {
			flips++
		}
	}
	if flips != 8 {
		t.Fatalf("flips = %d, want 8", flips)
	}
	for p := mem.Page(0); p < 8; p++ {
		if c.IsPrivate(p) || !c.IsShared(p) {
			t.Fatalf("page %d not shared after its flip", p)
		}
	}
}

// Property: a page is never both private and shared; a flip happens at most
// once per page; after any access sequence, page state is consistent with
// the set of cores that accessed it.
func TestQuickClassifierConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(false)
		accessedBy := map[mem.Page]map[int]bool{}
		for _, op := range ops {
			core := int(op & 3)
			page := mem.Page(op >> 2 & 7)
			c.Access(core, page, false)
			if accessedBy[page] == nil {
				accessedBy[page] = map[int]bool{}
			}
			accessedBy[page][core] = true
			if c.IsPrivate(page) && c.IsShared(page) {
				return false
			}
			if len(accessedBy[page]) == 1 && !c.IsPrivate(page) {
				return false
			}
			if len(accessedBy[page]) > 1 && !c.IsShared(page) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
