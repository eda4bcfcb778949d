// Package runner provides a context-aware worker pool for fanning
// independent simulation jobs across CPUs while keeping the observable
// output deterministic: jobs carry a submission index, and completed
// results are committed strictly in that order regardless of which
// worker finishes first. It is the one fan-out path for runs: sweep
// matrices (internal/report), the fabric coordinator's batches and
// raccdsim's benchmark lists all run on it, and cmd/sweep and
// cmd/raccdsim expose the worker count as a -jobs flag. One worker is
// the same pool with one goroutine, so cancellation and error
// reporting do not depend on the worker count.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Run executes n index-addressed jobs on up to workers goroutines.
//
// work(ctx, i) produces the result of job i. commit(i, v) receives each
// successful result; commits are serialized under an internal mutex and
// delivered strictly in index order (0, 1, 2, ...), so a caller may
// stream progress or append to an ordered collection from commit without
// further locking — the observable commit sequence of a parallel run is
// identical to a sequential one.
//
// workers <= 0 selects runtime.GOMAXPROCS(0); workers is capped at n, and
// workers == 1 runs the jobs one at a time in index order.
//
// On the first job failure the context passed to still-running jobs is
// cancelled and queued jobs are skipped. Run returns the error of the
// lowest-indexed genuinely-failed job (cancellation fallout from jobs
// interrupted mid-flight does not mask it). When the parent context is
// cancelled and no job failed otherwise, Run returns the lowest-indexed
// interrupted job's own error, which wraps the cancellation and can
// name the job, or the parent context's error when no job was
// interrupted. No commits are made for indices at or beyond the first
// failed one.
func Run[T any](ctx context.Context, workers, n int,
	work func(ctx context.Context, i int) (T, error),
	commit func(i int, v T)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu      sync.Mutex
		results = make([]T, n)
		done    = make([]bool, n)
		errs    = make([]error, n)
		next    int // lowest index not yet committed
		failed  = n // lowest index that has failed
	)

	indices := make(chan int)
	go func() {
		defer close(indices)
		for i := 0; i < n; i++ {
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				if ctx.Err() != nil {
					continue // drain after cancellation
				}
				v, err := work(ctx, i)
				mu.Lock()
				if err != nil {
					errs[i] = err
					if i < failed {
						failed = i
					}
					mu.Unlock()
					cancel()
					continue
				}
				results[i] = v
				done[i] = true
				for next < n && next < failed && done[next] {
					commit(next, results[next])
					done[next] = false
					var zero T
					results[next] = zero
					next++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	return firstError(errs, ctx)
}

// firstError picks the error Run reports: the lowest-indexed failure
// that is not cancellation fallout, else the lowest-indexed failure of
// any kind, else the context's own error.
func firstError(errs []error, ctx context.Context) error {
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) && !errors.Is(e, context.DeadlineExceeded) {
			return e
		}
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return ctx.Err()
}
