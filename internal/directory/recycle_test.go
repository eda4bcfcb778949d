package directory

import (
	"slices"
	"testing"

	"raccd/internal/mem"
)

// freshDirectory is New on newly allocated arrays, never recycled ones.
func freshDirectory(cfg Config) *Directory {
	d := New(cfg)
	d.entries = make([]Entry, len(d.entries))
	d.plru = make([]uint8, len(d.plru))
	return d
}

// churn fills d with shared and owned entries and skews its PLRU state.
func churn(d *Directory) {
	for i := 0; i < 4*d.Capacity(); i++ {
		b := mem.Block(i * 7)
		if e, hit := d.Lookup(b); hit {
			e.AddSharer(i % 4)
			continue
		}
		_, e := d.Allocate(b)
		e.AddSharer(i % 4)
		e.Owner = i % 4
	}
}

// victims allocates a fixed block stream in d and returns every block it
// evicted, in order.
func victims(d *Directory) []mem.Block {
	var out []mem.Block
	for i := 0; i < 3*d.Capacity(); i++ {
		b := mem.Block(i * 13 % 1024)
		if _, hit := d.Lookup(b); hit {
			continue
		}
		if victim, _ := d.Allocate(b); victim.Valid {
			out = append(out, victim.Block)
		}
	}
	return out
}

// TestRecycledDirectoryMatchesFresh: a directory built on the arrays a
// filled directory released, after an ADR Resize or without one, behaves
// exactly like one built on new arrays: no valid entries, zero occupancy
// and stats, and the same victims for the same allocation stream (stale
// PLRU bits would change them).
func TestRecycledDirectoryMatchesFresh(t *testing.T) {
	full := Config{Banks: 4, Ways: 4, SetsPerBank: 8, MinSets: 1}
	for _, resize := range []bool{false, true} {
		cfg := full
		if resize {
			cfg.SetsPerBank /= 2
		}
		want := victims(freshDirectory(cfg))
		if len(want) == 0 {
			t.Fatalf("%+v: allocation stream evicted nothing; it cannot compare replacement state", cfg)
		}
		reused := false
		// A sync.Pool may drop a released array (always possible across
		// a GC, and at random under -race), so retry until one is reused.
		for try := 0; try < 100 && !reused; try++ {
			d := New(full)
			churn(d)
			if resize {
				d.Resize(cfg.SetsPerBank)
				churn(d)
			}
			first := &d.entries[0]
			d.Release()

			n := New(cfg)
			reused = &n.entries[0] == first
			valid := 0
			n.Walk(func(*Entry) { valid++ })
			if valid != 0 || n.Occupancy() != 0 {
				t.Fatalf("try %d, %+v: new directory has %d valid entries, occupancy %d", try, cfg, valid, n.Occupancy())
			}
			if n.Stats != (Stats{}) {
				t.Fatalf("try %d, %+v: new directory has stats %+v", try, cfg, n.Stats)
			}
			if got := victims(n); !slices.Equal(got, want) {
				t.Fatalf("try %d, %+v: victim sequence differs from a fresh directory:\n got %v\nwant %v", try, cfg, got, want)
			}
		}
		if !reused {
			t.Errorf("%+v: no directory reused a released array in 100 tries", cfg)
		}
	}
}
