package cache

import (
	"slices"
	"testing"

	"raccd/internal/mem"
)

// freshCache is NewBanked on newly allocated arrays, never recycled ones.
func freshCache(sets, ways int, shift uint) *Cache {
	c := NewBanked(sets, ways, shift)
	c.lines = make([]Line, len(c.lines))
	c.plru = make([]uint8, len(c.plru))
	return c
}

// churn fills c with dirty, non-coherent lines and skews its PLRU state.
func churn(c *Cache) {
	for i := 0; i < 4*c.Capacity(); i++ {
		b := mem.Block(i * 7)
		if ln, hit := c.Lookup(b); hit {
			ln.Dirty = true
			continue
		}
		_, ln := c.Insert(b)
		*ln = Line{Block: b, State: Modified, Dirty: true, NC: i%3 == 0, Thread: uint8(i % 4), Val: uint64(i)}
	}
}

// victims inserts a fixed block stream into c and returns every block it
// displaced, in order.
func victims(c *Cache) []mem.Block {
	var out []mem.Block
	for i := 0; i < 3*c.Capacity(); i++ {
		b := mem.Block(i * 13 % 1024)
		if _, hit := c.Lookup(b); hit {
			continue
		}
		victim, ln := c.Insert(b)
		ln.State = Shared
		if victim.State != Invalid {
			out = append(out, victim.Block)
		}
	}
	return out
}

// TestRecycledCacheMatchesFresh: a cache built on the arrays a filled
// cache released behaves exactly like one built on new arrays: no
// resident lines, zero stats, and the same victims for the same insert
// stream (stale PLRU bits would change them).
func TestRecycledCacheMatchesFresh(t *testing.T) {
	const sets, ways, shift = 16, 8, 2
	want := victims(freshCache(sets, ways, shift))
	if len(want) == 0 {
		t.Fatal("insert stream displaced nothing; it cannot compare replacement state")
	}
	reused := false
	// A sync.Pool may drop a released array (always possible across a
	// GC, and at random under -race), so retry until one is reused.
	for try := 0; try < 100 && !reused; try++ {
		old := NewBanked(sets, ways, shift)
		churn(old)
		first := &old.lines[0]
		old.Release()

		c := NewBanked(sets, ways, shift)
		reused = &c.lines[0] == first
		if n := c.Resident(); n != 0 {
			t.Fatalf("try %d: new cache has %d resident lines", try, n)
		}
		if c.Stats != (Stats{}) {
			t.Fatalf("try %d: new cache has stats %+v", try, c.Stats)
		}
		if got := victims(c); !slices.Equal(got, want) {
			t.Fatalf("try %d: victim sequence differs from a fresh cache:\n got %v\nwant %v", try, got, want)
		}
	}
	if !reused {
		t.Fatal("no cache reused a released array in 100 tries")
	}
}
