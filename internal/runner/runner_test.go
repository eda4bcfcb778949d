package runner

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Commits must arrive strictly in submission order even when workers
// finish out of order.
func TestCommitOrderDeterministic(t *testing.T) {
	const n = 64
	for _, workers := range []int{0, 1, 2, 7, n} {
		var got []int
		err := Run(context.Background(), workers, n,
			func(_ context.Context, i int) (int, error) {
				// Reverse the natural completion order: later jobs finish
				// first, forcing the pool to buffer and re-order.
				time.Sleep(time.Duration(n-i) * 50 * time.Microsecond)
				return i * i, nil
			},
			func(i, v int) {
				got = append(got, i)
				if v != i*i {
					t.Errorf("commit(%d) got value %d, want %d", i, v, i*i)
				}
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d commits, want %d", workers, len(got), n)
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: commit %d was for index %d", workers, i, idx)
			}
		}
	}
}

// The pool must actually run jobs concurrently when asked to.
func TestActuallyParallel(t *testing.T) {
	const workers = 4
	var inFlight, peak atomic.Int32
	err := Run(context.Background(), workers, 16,
		func(_ context.Context, i int) (struct{}, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
			return struct{}{}, nil
		},
		func(int, struct{}) {})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
}

// The first genuine failure wins; cancellation fallout from interrupted
// jobs must not mask it, and no commit may be made at or beyond it.
func TestFirstErrorWinsAndCancels(t *testing.T) {
	boom := errors.New("boom")
	const n, failAt = 32, 5
	var maxCommitted atomic.Int32
	maxCommitted.Store(-1)
	var started atomic.Int32
	err := Run(context.Background(), 4, n,
		func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			if i == failAt {
				return 0, fmt.Errorf("job %d: %w", i, boom)
			}
			// Later jobs observe the cancellation and return its error;
			// the pool must still report the real failure.
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(2 * time.Millisecond):
				return i, nil
			}
		},
		func(i, _ int) { maxCommitted.Store(int32(i)) })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if m := maxCommitted.Load(); m >= failAt {
		t.Fatalf("committed index %d at/beyond failed index %d", m, failAt)
	}
	if s := started.Load(); int(s) == n {
		t.Logf("all %d jobs started before cancellation propagated (slow machine?)", n)
	}
}

// Cancelling the parent context stops the sweep and is reported.
func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var committed atomic.Int32
	var once sync.Once
	err := Run(ctx, 2, 1000,
		func(ctx context.Context, i int) (int, error) {
			if i >= 4 {
				once.Do(cancel)
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(time.Millisecond):
				return i, nil
			}
		},
		func(int, int) { committed.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := committed.Load(); c >= 1000 {
		t.Fatalf("committed %d jobs despite cancellation", c)
	}
}

// A parent cancellation that interrupts a job reports that job's own
// error, which wraps the cancellation, rather than the bare context
// error: the job can name itself ("run Jacobi/RaCCD 1:1: context
// canceled"). Jobs below the interrupted one return without consulting
// the context, so index 2 is always the lowest interrupted job. With two
// workers a job below it may still be queued at the cancellation and be
// skipped, so only one worker pins both commits.
func TestParentCancellationReturnsInterruptedJobError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var committed []int
		err := Run(ctx, workers, 8,
			func(ctx context.Context, i int) (int, error) {
				if i < 2 {
					return i, nil
				}
				if i == 2 {
					cancel()
				}
				<-ctx.Done()
				return 0, fmt.Errorf("job %d: %w", i, ctx.Err())
			},
			func(i, _ int) { committed = append(committed, i) })
		cancel()
		if err == nil || err.Error() != "job 2: context canceled" {
			t.Fatalf("workers=%d: err = %v, want job 2's own error", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v does not wrap context.Canceled", workers, err)
		}
		if want := []int{0, 1}; workers == 1 && !slices.Equal(committed, want) ||
			len(committed) > len(want) || !slices.Equal(committed, want[:len(committed)]) {
			t.Fatalf("workers=%d: committed %v, want jobs 0 and 1 (or a prefix with two workers)", workers, committed)
		}
	}
}

// A pre-cancelled context runs nothing.
func TestPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := Run(ctx, 4, 8,
		func(context.Context, int) (int, error) { ran = true; return 0, nil },
		func(int, int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("job ran under a pre-cancelled context")
	}
}

// Sequential mode (workers == 1) stops at the first error without
// touching later jobs.
func TestSequentialStopsAtError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := Run(context.Background(), 1, 8,
		func(_ context.Context, i int) (int, error) {
			ran = append(ran, i)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		},
		func(int, int) {})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(ran) != 4 {
		t.Fatalf("ran %v, want exactly jobs 0..3", ran)
	}
}

func TestZeroJobs(t *testing.T) {
	if err := Run(context.Background(), 4, 0,
		func(context.Context, int) (int, error) { t.Fatal("work called"); return 0, nil },
		func(int, int) { t.Fatal("commit called") }); err != nil {
		t.Fatal(err)
	}
}

// A job that panics on the calling goroutine — every job does with one
// worker — panics out of Run with its own value, so a recover in the
// caller turns it into an error instead of the process dying.
func TestPanicReachesCaller(t *testing.T) {
	for _, n := range []int{1, 3} {
		var commits []int
		got := func() (p any) {
			defer func() { p = recover() }()
			Run(context.Background(), 1, n,
				func(_ context.Context, i int) (int, error) {
					if i == n-1 {
						panic("job panicked")
					}
					return i, nil
				},
				func(i, _ int) { commits = append(commits, i) })
			return nil
		}()
		if got != "job panicked" {
			t.Fatalf("n=%d: recovered %v, want the job's panic value", n, got)
		}
		if len(commits) != n-1 {
			t.Fatalf("n=%d: commits %v, want the %d jobs before the panic", n, commits, n-1)
		}
	}
}
