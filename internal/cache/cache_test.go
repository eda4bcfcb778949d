package cache

import (
	"testing"
	"testing/quick"

	"raccd/internal/mem"
)

func fill(t *testing.T, c *Cache, b mem.Block, st State) {
	t.Helper()
	_, ln := c.Insert(b)
	ln.State = st
}

func TestGeometryValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 2}, {3, 2}, {4, 3}, {-1, 2}, {4, 0}, {4, 32}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			New(bad[0], bad[1])
		}()
	}
	c := New(256, 2)
	if c.Capacity() != 512 || c.SizeBytes() != 32768 {
		t.Errorf("capacity %d size %d, want 512 lines / 32 KiB", c.Capacity(), c.SizeBytes())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(4, 2)
	if _, hit := c.Lookup(5); hit {
		t.Fatal("hit in empty cache")
	}
	fill(t, c, 5, Exclusive)
	ln, hit := c.Lookup(5)
	if !hit || ln.Block != 5 || ln.State != Exclusive {
		t.Fatalf("lookup after insert: %+v hit=%v", ln, hit)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss", c.Stats)
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	c := New(4, 2)
	fill(t, c, 5, Shared)
	c.Peek(5)
	c.Peek(6)
	if c.Stats.Hits != 0 || c.Stats.Misses != 0 {
		t.Fatalf("Peek affected stats: %+v", c.Stats)
	}
}

func TestSetConflictEviction(t *testing.T) {
	c := New(4, 2) // blocks 0,4,8 map to set 0
	fill(t, c, 0, Shared)
	fill(t, c, 4, Shared)
	victim, ln := c.Insert(8)
	ln.State = Shared
	if victim.State == Invalid {
		t.Fatal("third insert into 2-way set produced no victim")
	}
	if victim.Block != 0 && victim.Block != 4 {
		t.Fatalf("victim block %d not from the conflicting set", victim.Block)
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Stats.Evictions)
	}
}

func TestPLRUVictimIsLeastRecentlyTouched(t *testing.T) {
	c := New(1, 4)
	for b := mem.Block(0); b < 4; b++ {
		fill(t, c, b, Shared)
	}
	// Fills touched 0,1,2,3 in order; re-touching 0 points the root at the
	// right half and the right subtree still points at way 2, so tree
	// pseudo-LRU selects way 2 (this is where tree PLRU diverges from
	// true LRU, which would pick 1).
	c.Lookup(0)
	victim, ln := c.Insert(100)
	ln.State = Shared
	if victim.Block != 2 {
		t.Fatalf("PLRU victim = %d, want 2", victim.Block)
	}
}

func TestPLRUVictimNeverMostRecent(t *testing.T) {
	c := New(1, 8)
	for b := mem.Block(0); b < 8; b++ {
		fill(t, c, b, Shared)
	}
	for i := 0; i < 100; i++ {
		touched := mem.Block(i % 8)
		if _, hit := c.Lookup(touched); !hit {
			continue
		}
		// Peek at the victim the tree would choose by inserting into a
		// scratch clone of the PLRU state: instead, insert and verify,
		// then re-insert the victim to keep the set full.
		victim, ln := c.Insert(mem.Block(100 + i))
		if victim.Block == touched {
			t.Fatalf("iteration %d: PLRU evicted the most recently touched way (block %d)", i, touched)
		}
		ln.State = Shared
		c.Invalidate(mem.Block(100 + i))
		_, ln2 := c.Insert(victim.Block)
		ln2.State = Shared
	}
}

func TestPLRUDirectMapped(t *testing.T) {
	c := New(2, 1)
	fill(t, c, 0, Shared)
	victim, ln := c.Insert(2) // same set as 0
	ln.State = Shared
	if victim.Block != 0 {
		t.Fatalf("direct-mapped victim = %v, want block 0", victim)
	}
}

func TestInsertPrefersInvalidWay(t *testing.T) {
	c := New(1, 4)
	fill(t, c, 1, Shared)
	fill(t, c, 2, Shared)
	victim, _ := c.Insert(3)
	if victim.State != Invalid {
		t.Fatalf("insert with free ways evicted %+v", victim)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4, 2)
	fill(t, c, 9, Modified)
	ln, ok := c.Invalidate(9)
	if !ok || ln.Block != 9 || ln.State != Modified {
		t.Fatalf("Invalidate returned %+v %v", ln, ok)
	}
	if _, hit := c.Peek(9); hit {
		t.Fatal("block resident after Invalidate")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("double Invalidate reported residency")
	}
	if c.Stats.Invalidate != 1 {
		t.Fatalf("Invalidate count = %d, want 1", c.Stats.Invalidate)
	}
}

func TestWalkVisitsAllResident(t *testing.T) {
	c := New(8, 2)
	want := map[mem.Block]bool{3: true, 11: true, 200: true}
	for b := range want {
		fill(t, c, b, Shared)
	}
	got := map[mem.Block]bool{}
	c.Walk(func(ln *Line) { got[ln.Block] = true })
	if len(got) != len(want) {
		t.Fatalf("Walk visited %v, want %v", got, want)
	}
	for b := range want {
		if !got[b] {
			t.Errorf("Walk missed block %d", b)
		}
	}
}

func TestWalkCanInvalidate(t *testing.T) {
	c := New(8, 2)
	fill(t, c, 1, Shared)
	fill(t, c, 2, Shared)
	c.Walk(func(ln *Line) {
		if ln.Block == 1 {
			ln.State = Invalid
		}
	})
	if _, hit := c.Peek(1); hit {
		t.Fatal("line invalidated via Walk still resident")
	}
	if _, hit := c.Peek(2); !hit {
		t.Fatal("unrelated line lost")
	}
}

func TestResidentNC(t *testing.T) {
	c := New(8, 2)
	fill(t, c, 1, Shared)
	_, ln := c.Insert(2)
	ln.State = Exclusive
	ln.NC = true
	if c.Resident() != 2 {
		t.Fatalf("Resident = %d, want 2", c.Resident())
	}
	if c.ResidentNC() != 1 {
		t.Fatalf("ResidentNC = %d, want 1", c.ResidentNC())
	}
}

func TestValueCarried(t *testing.T) {
	c := New(4, 2)
	_, ln := c.Insert(7)
	ln.State = Modified
	ln.Val = 42
	got, hit := c.Lookup(7)
	if !hit || got.Val != 42 {
		t.Fatalf("Val = %d hit=%v, want 42,true", got.Val, hit)
	}
}

func TestDistinctSetsDoNotConflict(t *testing.T) {
	c := New(4, 1)
	for b := mem.Block(0); b < 4; b++ {
		fill(t, c, b, Shared)
	}
	for b := mem.Block(0); b < 4; b++ {
		if _, hit := c.Peek(b); !hit {
			t.Fatalf("block %d displaced from its own set", b)
		}
	}
}

// Property: residency never exceeds capacity, and a block is never resident
// twice, under arbitrary insert/invalidate sequences.
func TestQuickCapacityAndUniqueness(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(8, 4)
		for _, op := range ops {
			b := mem.Block(op % 97)
			if op&0x8000 != 0 {
				c.Invalidate(b)
				continue
			}
			if _, hit := c.Peek(b); hit {
				continue // Insert requires non-residency
			}
			_, ln := c.Insert(b)
			ln.State = Shared
		}
		if c.Resident() > c.Capacity() {
			return false
		}
		seen := map[mem.Block]int{}
		c.Walk(func(ln *Line) { seen[ln.Block]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: after Insert(b), b is resident and maps to the right set.
func TestQuickInsertResident(t *testing.T) {
	f := func(raw []uint32) bool {
		c := New(16, 2)
		for _, v := range raw {
			b := mem.Block(v)
			if _, hit := c.Peek(b); hit {
				continue
			}
			_, ln := c.Insert(b)
			ln.State = Exclusive
			got, hit := c.Peek(b)
			if !hit || got.Block != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PLRU victim is always a way inside the set of the inserted block.
func TestQuickVictimFromSameSet(t *testing.T) {
	f := func(raw []uint16) bool {
		c := New(4, 4)
		for _, v := range raw {
			b := mem.Block(v)
			if _, hit := c.Peek(b); hit {
				continue
			}
			victim, _ := c.Insert(b)
			if victim.State != Invalid {
				if uint64(victim.Block)&3 != uint64(b)&3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(256, 8)
	for blk := mem.Block(0); blk < 256; blk++ {
		_, ln := c.Insert(blk)
		ln.State = Shared
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(mem.Block(i & 255))
	}
}

// BenchmarkInsertEvict measures a fill into a full set, which must pick a
// PLRU victim: almost every L1 fill of the Fig 2 sweep takes this path.
func BenchmarkInsertEvict(b *testing.B) {
	c := New(256, 8)
	for blk := mem.Block(0); blk < mem.Block(c.Capacity()); blk++ {
		_, ln := c.Insert(blk)
		ln.State = Shared
	}
	next := mem.Block(c.Capacity())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ln := c.Insert(next)
		ln.State = Shared
		next++
	}
	if c.Stats.Evictions != uint64(b.N) {
		b.Fatalf("%d evictions in %d inserts", c.Stats.Evictions, b.N)
	}
}
