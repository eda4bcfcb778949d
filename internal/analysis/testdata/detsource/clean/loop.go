package sim

import "runtime"

// buildTiles runs per-tile work in a plain loop on the caller's
// goroutine. A deferred call is not a go statement, and runtime calls
// other than the CPU-count ones are allowed.
func buildTiles(n int, fn func(int)) (goroutines int) {
	defer func() { goroutines = runtime.NumGoroutine() }()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return 0
}
