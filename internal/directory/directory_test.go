package directory

import (
	"testing"
	"testing/quick"

	"raccd/internal/mem"
)

func small() *Directory {
	return New(Config{Banks: 4, Ways: 2, SetsPerBank: 4, MinSets: 1})
}

func TestGeometry(t *testing.T) {
	d := small()
	if d.Capacity() != 32 {
		t.Fatalf("Capacity = %d, want 32", d.Capacity())
	}
	if d.MaxCapacity() != 32 {
		t.Fatalf("MaxCapacity = %d, want 32", d.MaxCapacity())
	}
	if d.Banks() != 4 || d.Ways() != 2 || d.SetsPerBank() != 4 {
		t.Fatal("geometry accessors wrong")
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Config{
		{Banks: 3, Ways: 2, SetsPerBank: 4},
		{Banks: 4, Ways: 0, SetsPerBank: 4},
		{Banks: 4, Ways: 2, SetsPerBank: 6},
		{Banks: 4, Ways: 2, SetsPerBank: 2, MinSets: 4},
		{Banks: 4, Ways: 32, SetsPerBank: 4},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestBankInterleaving(t *testing.T) {
	d := small()
	for b := mem.Block(0); b < 16; b++ {
		if got, want := d.BankOf(b), int(b%4); got != want {
			t.Fatalf("BankOf(%d) = %d, want %d", b, got, want)
		}
	}
}

func TestLookupAllocate(t *testing.T) {
	d := small()
	if _, ok := d.Lookup(5); ok {
		t.Fatal("hit in empty directory")
	}
	victim, e := d.Allocate(5)
	if victim.Valid {
		t.Fatal("allocation in empty directory produced a victim")
	}
	if e.Owner != NoOwner {
		t.Fatalf("fresh entry owner = %d, want NoOwner", e.Owner)
	}
	e.AddSharer(3)
	got, ok := d.Lookup(5)
	if !ok || !got.HasSharer(3) {
		t.Fatal("allocated entry not found or sharer lost")
	}
	if d.Occupancy() != 1 {
		t.Fatalf("Occupancy = %d, want 1", d.Occupancy())
	}
	if d.Stats.Accesses != 3 || d.Stats.Hits != 1 || d.Stats.Misses != 1 || d.Stats.Allocations != 1 {
		t.Fatalf("stats %+v", d.Stats)
	}
}

func TestSharerOps(t *testing.T) {
	var e Entry
	e.AddSharer(0)
	e.AddSharer(15)
	if e.NumSharers() != 2 {
		t.Fatalf("NumSharers = %d, want 2", e.NumSharers())
	}
	if !e.HasSharer(0) || !e.HasSharer(15) || e.HasSharer(7) {
		t.Fatal("HasSharer wrong")
	}
	if e.OnlySharer(0) {
		t.Fatal("OnlySharer(0) with two sharers")
	}
	e.RemoveSharer(15)
	if !e.OnlySharer(0) {
		t.Fatal("OnlySharer(0) after removal")
	}
	var visited []int
	e.AddSharer(9)
	e.EachSharer(func(c int) { visited = append(visited, c) })
	if len(visited) != 2 || visited[0] != 0 || visited[1] != 9 {
		t.Fatalf("EachSharer visited %v, want [0 9]", visited)
	}
}

func TestCapacityEviction(t *testing.T) {
	d := small() // bank 0, 4 sets × 2 ways: blocks ≡0 mod 4 land in bank 0
	// Set within bank: (b/4) & 3. Blocks 0,16,32 share bank 0 set 0.
	d.Allocate(0)
	d.Allocate(16)
	victim, _ := d.Allocate(32)
	if !victim.Valid {
		t.Fatal("third allocation into a 2-way set produced no victim")
	}
	if victim.Block != 0 && victim.Block != 16 {
		t.Fatalf("victim block %d not from the same set", victim.Block)
	}
	if d.Stats.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", d.Stats.Evictions)
	}
	if d.Occupancy() != 2 {
		t.Fatalf("Occupancy = %d, want 2", d.Occupancy())
	}
}

func TestFree(t *testing.T) {
	d := small()
	d.Allocate(8)
	if !d.Free(8) {
		t.Fatal("Free of present entry returned false")
	}
	if d.Free(8) {
		t.Fatal("double Free returned true")
	}
	if d.Occupancy() != 0 {
		t.Fatalf("Occupancy = %d, want 0", d.Occupancy())
	}
	if _, ok := d.Peek(8); ok {
		t.Fatal("entry still present after Free")
	}
}

func TestPeekCountsNothing(t *testing.T) {
	d := small()
	d.Allocate(1)
	acc := d.Stats.Accesses
	d.Peek(1)
	d.Peek(2)
	if d.Stats.Accesses != acc {
		t.Fatal("Peek counted accesses")
	}
}

func TestWalk(t *testing.T) {
	d := small()
	for _, b := range []mem.Block{1, 2, 3} {
		d.Allocate(b)
	}
	n := 0
	d.Walk(func(e *Entry) { n++ })
	if n != 3 {
		t.Fatalf("Walk visited %d, want 3", n)
	}
}

func TestResizeShrinkKeepsFittingEntries(t *testing.T) {
	d := New(Config{Banks: 1, Ways: 2, SetsPerBank: 4, MinSets: 1})
	// 8 entries capacity. Fill 4 entries in distinct sets.
	for _, b := range []mem.Block{0, 1, 2, 3} {
		d.Allocate(b)
	}
	dropped := d.Resize(2) // capacity 4; blocks 0..3 map to sets 0,1,0,1 → all fit
	if len(dropped) != 0 {
		t.Fatalf("dropped %d entries, want 0", len(dropped))
	}
	for _, b := range []mem.Block{0, 1, 2, 3} {
		if _, ok := d.Peek(b); !ok {
			t.Fatalf("block %d lost across resize", b)
		}
	}
	if d.Occupancy() != 4 {
		t.Fatalf("Occupancy = %d, want 4", d.Occupancy())
	}
	if d.Stats.Resizes != 1 {
		t.Fatalf("Resizes = %d, want 1", d.Stats.Resizes)
	}
}

func TestResizeShrinkDropsOverflow(t *testing.T) {
	d := New(Config{Banks: 1, Ways: 2, SetsPerBank: 4, MinSets: 1})
	// Blocks 0,4,8,12 all map to set 0 under 1 set (trivially) — fill
	// different sets first then shrink to 1 set × 2 ways = 2 entries.
	for _, b := range []mem.Block{0, 1, 2, 3} {
		d.Allocate(b)
	}
	dropped := d.Resize(1)
	if len(dropped) != 2 {
		t.Fatalf("dropped %d entries, want 2", len(dropped))
	}
	if d.Occupancy() != 2 {
		t.Fatalf("Occupancy = %d, want 2", d.Occupancy())
	}
	if d.Stats.ResizeDrops != 2 {
		t.Fatalf("ResizeDrops = %d, want 2", d.Stats.ResizeDrops)
	}
}

func TestResizeGrowPreservesAll(t *testing.T) {
	d := New(Config{Banks: 1, Ways: 2, SetsPerBank: 4, MinSets: 1})
	d.Resize(1)
	d.Allocate(0)
	d.Allocate(4)
	dropped := d.Resize(4)
	if len(dropped) != 0 {
		t.Fatalf("grow dropped %d entries", len(dropped))
	}
	for _, b := range []mem.Block{0, 4} {
		if _, ok := d.Peek(b); !ok {
			t.Fatalf("block %d lost across grow", b)
		}
	}
}

func TestResizeBounds(t *testing.T) {
	d := New(Config{Banks: 1, Ways: 2, SetsPerBank: 4, MinSets: 2})
	if !d.CanHalve() || d.CanDouble() {
		t.Fatal("fresh directory at max: CanHalve should be true, CanDouble false")
	}
	d.Resize(2)
	if d.CanHalve() {
		t.Fatal("at MinSets, CanHalve must be false")
	}
	if !d.CanDouble() {
		t.Fatal("below max, CanDouble must be true")
	}
	for _, target := range []int{1, 8, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Resize(%d) did not panic", target)
				}
			}()
			d.Resize(target)
		}()
	}
}

func TestResizeNoOp(t *testing.T) {
	d := small()
	d.Allocate(1)
	if got := d.Resize(d.SetsPerBank()); got != nil {
		t.Fatal("no-op resize dropped entries")
	}
	if d.Stats.Resizes != 0 {
		t.Fatal("no-op resize counted")
	}
}

func TestAvgOccupancyFraction(t *testing.T) {
	d := New(Config{Banks: 1, Ways: 2, SetsPerBank: 1, MinSets: 1}) // capacity 2
	if d.AvgOccupancyFraction() != 0 {
		t.Fatal("empty directory avg occupancy != 0")
	}
	d.Allocate(0) // sampled occupancy 0 at allocation time
	d.Lookup(0)   // sampled occupancy 1
	d.Lookup(0)   // sampled occupancy 1
	// accum = 0+1+1 = 2 over 3 accesses over capacity 2.
	want := 2.0 / 3.0 / 2.0
	if got := d.AvgOccupancyFraction(); got != want {
		t.Fatalf("AvgOccupancyFraction = %v, want %v", got, want)
	}
}

// Property: occupancy always equals the number of valid entries and never
// exceeds capacity, under arbitrary allocate/free/resize sequences.
func TestQuickOccupancyConsistent(t *testing.T) {
	f := func(ops []uint16) bool {
		d := New(Config{Banks: 2, Ways: 2, SetsPerBank: 8, MinSets: 1})
		sets := 8
		for _, op := range ops {
			b := mem.Block(op % 61)
			switch op % 5 {
			case 0, 1, 2:
				if _, ok := d.Peek(b); !ok {
					d.Allocate(b)
				}
			case 3:
				d.Free(b)
			case 4:
				if op%2 == 0 && sets > 1 {
					sets /= 2
				} else if sets < 8 {
					sets *= 2
				}
				d.Resize(sets)
			}
			n := 0
			d.Walk(func(*Entry) { n++ })
			if n != d.Occupancy() || n > d.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: an allocated entry is always found by Lookup until freed or
// evicted, and evicted victims come from the same bank+set as the new block.
func TestQuickVictimSameSet(t *testing.T) {
	f := func(raw []uint16) bool {
		d := New(Config{Banks: 2, Ways: 2, SetsPerBank: 4, MinSets: 1})
		for _, v := range raw {
			b := mem.Block(v)
			if _, ok := d.Peek(b); ok {
				continue
			}
			victim, _ := d.Allocate(b)
			if victim.Valid && d.setIndex(victim.Block) != d.setIndex(b) {
				return false
			}
			if _, ok := d.Peek(b); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// fullDirectory returns a paper16 directory at 1:1 with every entry
// valid, and the first block it does not hold.
func fullDirectory() (*Directory, mem.Block) {
	d := New(Config{Banks: 16, Ways: 8, SetsPerBank: 256, MinSets: 1})
	n := mem.Block(d.Capacity())
	for b := mem.Block(0); b < n; b++ {
		d.Allocate(b)
	}
	return d, n
}

// BenchmarkLookupMiss measures a probe that scans a full set and finds
// nothing, as a coherent fill of a block the directory does not track.
func BenchmarkLookupMiss(b *testing.B) {
	d, next := fullDirectory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit := d.Lookup(next + mem.Block(i)); hit {
			b.Fatal("lookup of an untracked block hit")
		}
	}
}

// BenchmarkAllocateEvict measures an allocation into a full set, which
// must evict a PLRU victim.
func BenchmarkAllocateEvict(b *testing.B) {
	d, next := fullDirectory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Allocate(next + mem.Block(i))
	}
	if d.Stats.Evictions != uint64(b.N) {
		b.Fatalf("%d evictions in %d allocations", d.Stats.Evictions, b.N)
	}
}
