package directory

import (
	"math/rand"
	"testing"

	"raccd/internal/mem"
)

// TestWalkFootprint: through a seeded random sequence of allocations,
// frees, resizes and clears, Walk visits exactly the valid entries a full
// scan finds, in the same order, as many as Occupancy; and Clear leaves
// every entry zero, the ones outside the marked sets included.
func TestWalkFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := New(Config{Banks: 4, Ways: 2, SetsPerBank: 16, MinSets: 1})
	for i := 0; i < 5000; i++ {
		b := mem.Block(rng.Intn(512))
		switch r := rng.Intn(100); {
		case r < 2:
			d.Clear()
			for k, e := range d.entries {
				if e != (Entry{}) {
					t.Fatalf("step %d: entry %d = %+v after Clear", i, k, e)
				}
			}
		case r < 6:
			d.Resize(1 << rng.Intn(5))
		case r < 40:
			d.Free(b)
		default:
			if _, ok := d.Peek(b); !ok {
				d.Allocate(b)
			}
		}
		var walked, scanned []*Entry
		d.Walk(func(e *Entry) { walked = append(walked, e) })
		for k := range d.entries {
			if d.entries[k].Valid {
				scanned = append(scanned, &d.entries[k])
			}
		}
		if len(walked) != len(scanned) || len(walked) != d.Occupancy() {
			t.Fatalf("step %d: Walk visits %d entries, a scan finds %d, occupancy %d",
				i, len(walked), len(scanned), d.Occupancy())
		}
		for k := range walked {
			if walked[k] != scanned[k] {
				t.Fatalf("step %d: Walk's entry %d is block %d, the scan's block %d", i, k, walked[k].Block, scanned[k].Block)
			}
		}
	}
}
