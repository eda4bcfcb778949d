package coherence

import (
	"fmt"
	"testing"

	"raccd/internal/cache"
	"raccd/internal/mem"
)

// TestCheckInvariantsReportsViolations builds each violation CheckInvariants
// reports by editing lines of an empty hierarchy directly, and pins the
// error it returns.
func TestCheckInvariantsReportsViolations(t *testing.T) {
	const b = mem.Block(0x40)
	l1 := func(h *Hierarchy, core int, s cache.State) {
		_, ln := h.L1(core).Insert(b)
		ln.State = s
	}
	llc := func(h *Hierarchy, nc bool) {
		_, ln := h.LLCBank(h.bankOf(b)).Insert(b)
		ln.State, ln.NC = cache.Exclusive, nc
	}
	dir := func(h *Hierarchy) { h.Dir().Allocate(b) }

	for _, tc := range []struct {
		name  string
		build func(h *Hierarchy)
		want  string
	}{
		{"consistent", func(h *Hierarchy) {
			llc(h, false)
			dir(h)
			l1(h, 0, cache.Modified)
		}, ""},
		{"two M copies", func(h *Hierarchy) {
			llc(h, false)
			dir(h)
			l1(h, 0, cache.Modified)
			l1(h, 1, cache.Modified)
		}, fmt.Sprintf("block %d: 2 M + 0 E copies", b)},
		{"M beside S", func(h *Hierarchy) {
			llc(h, false)
			dir(h)
			l1(h, 0, cache.Modified)
			l1(h, 2, cache.Shared)
		}, fmt.Sprintf("block %d: M/E copy coexists with 1 S copies", b)},
		{"coherent L1 line missing from LLC", func(h *Hierarchy) {
			dir(h)
			l1(h, 1, cache.Shared)
		}, fmt.Sprintf("coherent L1 line %d (core 1) missing from LLC", b)},
		{"coherent L1 line missing from directory", func(h *Hierarchy) {
			llc(h, false)
			l1(h, 3, cache.Exclusive)
		}, fmt.Sprintf("coherent L1 line %d (core 3) missing from directory", b)},
		{"NC LLC line with a directory entry", func(h *Hierarchy) {
			llc(h, true)
			dir(h)
		}, fmt.Sprintf("NC LLC line %d has a directory entry", b)},
		{"coherent LLC line without a directory entry", func(h *Hierarchy) {
			llc(h, false)
		}, fmt.Sprintf("coherent LLC line %d has no directory entry", b)},
		{"directory entry without an LLC line", func(h *Hierarchy) {
			dir(h)
		}, fmt.Sprintf("directory entry for %d has no LLC line", b)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tiny(FullCoh)
			tc.build(h)
			err := h.CheckInvariants()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected violation: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("no violation reported, want %q", tc.want)
			case tc.want != "" && err.Error() != tc.want:
				t.Fatalf("violation %q, want %q", err, tc.want)
			}
		})
	}
}
