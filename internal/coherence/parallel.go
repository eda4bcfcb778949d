package coherence

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelTiles runs fn(i) for i in [0, n) across host CPUs. It is for
// per-tile work that is independent and deterministic per index —
// construction of tile-private structures, read-only invariant walks — so
// the execution order can never affect results. On a single-CPU host (or
// for tiny n) it degenerates to the plain loop.
//
// A panic in fn reaches the caller as the plain loop's would: a worker
// recovers it and parallelTiles re-raises it after every worker is done,
// on the caller's goroutine, where a recover (sim.RunContext's) can see
// it. Unrecovered on the worker, it would end the process. When several
// tiles panic, the lowest one's panic is re-raised, as in the plain loop.
func parallelTiles(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	panicked, value := n, any(nil) // lowest panicking tile and its panic
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			i := 0
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if i < panicked {
						panicked, value = i, p
					}
					mu.Unlock()
				}
			}()
			for {
				i = int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked < n {
		panic(value)
	}
}
