package coherence

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// recovered runs fn and returns what it panicked with, or nil.
func recovered(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// TestParallelTilesReraisesPanic: a panic in a worker goroutine reaches
// the caller's recover, as one from the plain loop does, and of several
// panicking tiles the lowest one's panic is re-raised.
func TestParallelTilesReraisesPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // workers on any host
	got := recovered(func() {
		parallelTiles(16, func(i int) {
			if i == 3 || i == 11 {
				panic(fmt.Sprintf("tile %d", i))
			}
		})
	})
	if got != "tile 3" {
		t.Fatalf("recovered %v, want the panic of tile 3", got)
	}
}

// TestNewPanicsOnCallersGoroutine: New builds its tiles on worker
// goroutines, and a geometry the caches reject still panics where the
// caller can recover it instead of ending the process.
func TestNewPanicsOnCallersGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := DefaultParams()
	p.LLCWays = 3
	got := recovered(func() { New(FullCoh, p) })
	if got == nil || !strings.Contains(fmt.Sprint(got), "3 ways") {
		t.Fatalf("recovered %v, want the LLC geometry panic", got)
	}
}
