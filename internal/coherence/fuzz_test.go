package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"raccd/internal/cache"
	"raccd/internal/directory"
	"raccd/internal/mem"
)

// FuzzProtocol drives the full hierarchy with an arbitrary byte-encoded
// access program across all four systems and checks the protocol invariants
// after every access plus last-write-wins final memory. The per-access
// check covers inclusion at every access boundary, which the
// non-coherent fill relies on to skip the directory. Run with `go test
// -fuzz=FuzzProtocol ./internal/coherence` for continuous exploration; the
// seed corpus runs as a normal test, and TestProtocolSeeded runs the body
// over a fixed set of generated programs.
func FuzzProtocol(f *testing.F) {
	f.Add([]byte{0x01, 0x82, 0x43, 0xc4, 0x05, 0x66})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x10, 0x20, 0x30, 0x40})
	f.Add([]byte{0x81, 0x81, 0x81, 0x42, 0x42, 0x42})
	f.Fuzz(checkProtocol)
}

// TestProtocolSeeded runs checkProtocol, FuzzProtocol's body, over a fixed
// seeded set of generated programs of up to 64 accesses: the tier-1 run of
// the protocol fuzzer.
func TestProtocolSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		program := make([]byte, 2*(1+rng.Intn(64)))
		rng.Read(program)
		checkProtocol(t, program)
	}
}

// checkProtocol is FuzzProtocol's body: it runs program, two bytes per
// access, on a tiny hierarchy of each system. After every access it checks
// the protocol invariants and that the footprint walks see exactly the
// resident lines and entries; at the end, last-write-wins final memory.
func checkProtocol(t *testing.T, program []byte) {
	for _, mode := range []Mode{FullCoh, PT, PTRO, RaCCD} {
		h := tiny(mode)
		last := map[mem.Addr]uint64{}
		val := uint64(1)
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i], program[i+1]
			c := int(op & 3)
			addr := mem.Addr(arg&0x3f) * 64
			write := op&0x80 != 0
			// In RaCCD, a bracketed mini-task, respecting the task
			// memory model (no concurrent NC writers).
			task := mode == RaCCD && op&0x40 != 0
			if task {
				h.RegisterRegion(c, mem.Range{Start: addr, Size: 256})
			}
			if write {
				h.Access(c, addr, true, val)
				last[addr] = val
				val++
			} else {
				h.Access(c, addr, false, 0)
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("%v: after access %d: invariant violated: %v", mode, i/2, err)
			}
			if err := checkWalks(h); err != nil {
				t.Fatalf("%v: after access %d: %v", mode, i/2, err)
			}
			if task {
				h.InvalidateNC(c)
			}
		}
		if mode == RaCCD {
			for c := 0; c < 4; c++ {
				h.InvalidateNC(c)
			}
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("%v: invariant violated: %v", mode, err)
		}
		h.DrainAll()
		for a, want := range last {
			if got := h.VirtValue(a); got != want {
				t.Fatalf("%v: addr %#x final value %d, want %d", mode, uint64(a), got, want)
			}
		}
	}
}

// checkWalks reports a cache whose Walk misses or repeats a resident line,
// or a directory whose Walk does not visit exactly its occupancy.
func checkWalks(h *Hierarchy) error {
	for _, level := range []struct {
		name   string
		caches []*cache.Cache
	}{{"L1", h.l1}, {"LLC bank", h.llc}} {
		for i, c := range level.caches {
			n := 0
			c.Walk(func(*cache.Line) { n++ })
			if n != c.Resident() {
				return fmt.Errorf("%s %d: Walk visits %d lines, %d resident", level.name, i, n, c.Resident())
			}
		}
	}
	n := 0
	h.dir.Walk(func(*directory.Entry) { n++ })
	if n != h.dir.Occupancy() {
		return fmt.Errorf("directory: Walk visits %d entries, occupancy %d", n, h.dir.Occupancy())
	}
	return nil
}
