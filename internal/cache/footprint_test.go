package cache

import (
	"math/rand"
	"slices"
	"testing"

	"raccd/internal/mem"
)

func TestFootprintNext(t *testing.T) {
	f := NewFootprint(200)
	for _, s := range []int{0, 63, 64, 130, 199} {
		f.Mark(s)
	}
	var got []int
	for s := f.Next(0); s >= 0; s = f.Next(s + 1) {
		got = append(got, s)
	}
	if want := []int{0, 63, 64, 130, 199}; !slices.Equal(got, want) {
		t.Fatalf("marked sets %v, want %v", got, want)
	}
	if s := f.Next(200); s != -1 {
		t.Fatalf("Next past the end = %d, want -1", s)
	}
	f.Reset()
	if s := f.Next(0); s != -1 {
		t.Fatalf("Next after Reset = %d, want -1", s)
	}
}

// TestWalkFootprint: after every fill and invalidation of a seeded random
// sequence, Walk visits exactly the resident lines a full scan finds, in
// the same set-major order, and a fill made by fn during a walk into a
// later set is visited by that walk, as a full scan would visit it.
func TestWalkFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewBanked(64, 4, 1)
	for i := 0; i < 5000; i++ {
		b := mem.Block(rng.Intn(1024))
		if _, ok := c.Peek(b); ok {
			c.Invalidate(b)
		} else {
			fill(t, c, b, Shared)
		}
		var walked, scanned []*Line
		c.Walk(func(ln *Line) { walked = append(walked, ln) })
		for i := range c.lines {
			if c.lines[i].State != Invalid {
				scanned = append(scanned, &c.lines[i])
			}
		}
		if len(walked) != len(scanned) || len(walked) != c.Resident() {
			t.Fatalf("step %d: Walk visits %d lines, a scan finds %d", i, len(walked), len(scanned))
		}
		for k := range walked {
			if walked[k] != scanned[k] {
				t.Fatalf("step %d: Walk's line %d is block %d, the scan's block %d", i, k, walked[k].Block, scanned[k].Block)
			}
		}
	}

	c = New(8, 2)
	fill(t, c, 0, Shared) // set 0
	var seen []mem.Block
	c.Walk(func(ln *Line) {
		seen = append(seen, ln.Block)
		if ln.Block == 0 {
			fill(t, c, 5, Shared) // set 5, later in the walk
		}
	})
	if len(seen) != 2 || seen[1] != 5 {
		t.Fatalf("walk saw %v, want the fill it made into a later set too", seen)
	}
}
