package sim

import (
	"runtime"
	"sync"
)

// buildTiles spreads per-tile work over host CPUs: sim-core starts no
// goroutine and never asks how many CPUs the host has.
func buildTiles(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)              // want `runtime.GOMAXPROCS in sim-core`
	if cpus := runtime.NumCPU(); cpus < workers { // want `runtime.NumCPU in sim-core`
		workers = cpus
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { // want `go statement in sim-core`
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
