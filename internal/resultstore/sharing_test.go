package resultstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"raccd/internal/sim"
)

// TestCrossHandleGetOrCompute models two daemons sharing one store
// directory (the deployment docs/SERVICE.md describes): concurrent
// GetOrCompute storms through two independent Store handles must agree on
// the result and compute at most once per handle — single-flight is
// per-process, the shared disk dedupes across them.
func TestCrossHandleGetOrCompute(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	cfg := sim.Config{DirRatio: 1, Validate: true}
	res := simulate(t, cfg, "Jacobi", 0.05)
	key := runKey(t, cfg, "Jacobi", 0.05)

	var computes atomic.Int64
	compute := func() (sim.Result, error) {
		computes.Add(1)
		return res, nil
	}

	const callers = 16
	var wg sync.WaitGroup
	results := make([]sim.Result, 2*callers)
	errs := make([]error, 2*callers)
	for i := 0; i < callers; i++ {
		for hi, h := range []*Store{a, b} {
			wg.Add(1)
			go func(slot int, h *Store) {
				defer wg.Done()
				r, _, err := h.GetOrCompute(key, compute)
				results[slot], errs[slot] = r, err
			}(i*2+hi, h)
		}
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i, r := range results {
		if r != res {
			t.Fatalf("caller %d got a divergent result", i)
		}
	}
	// Each handle single-flights its own callers; the two handles race
	// each other at most once (the loser may recompute before the
	// winner's atomic rename lands, which is safe — last write wins with
	// identical bytes).
	if got := computes.Load(); got < 1 || got > 2 {
		t.Fatalf("%d computes across two handles, want 1 or 2", got)
	}

	// A fresh storm on either handle is now all disk hits.
	computes.Store(0)
	for _, h := range []*Store{a, b} {
		if _, cached, err := h.GetOrCompute(key, compute); err != nil || !cached {
			t.Fatalf("warm GetOrCompute: cached=%v err=%v", cached, err)
		}
	}
	if got := computes.Load(); got != 0 {
		t.Fatalf("%d computes on a warm store, want 0", got)
	}
}

// TestEvictionRacingRead hammers Get on one key while Puts of fresh keys
// force the size bound to evict continuously. Every read must be clean:
// a hit returns the exact stored result, a miss is just a miss — never a
// torn object, a panic, or (under -race) a data race in the index
// bookkeeping.
func TestEvictionRacingRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{DirRatio: 1, Validate: true}
	res := simulate(t, cfg, "Jacobi", 0.05)
	key := runKey(t, cfg, "Jacobi", 0.05)
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	// Bound the store to roughly four objects so most Puts below evict.
	s.MaxBytes = 4 * s.Stats().Bytes

	stop := make(chan struct{})
	var hits, misses atomic.Int64
	var readerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, ok := s.Get(key)
			if !ok {
				misses.Add(1)
				// Evicted: put it back so the race keeps going.
				if err := s.Put(key, res); err != nil {
					readerErr = err
					return
				}
				continue
			}
			hits.Add(1)
			if got != res {
				readerErr = fmt.Errorf("hit returned a torn result")
				return
			}
		}
	}()

	// Writer: flood the store with distinct keys, forcing eviction on
	// nearly every Put.
	for i := 0; i < 400; i++ {
		k := KeyOf(fmt.Sprintf("cfg-filler-%d", i), "wl")
		if err := s.Put(k, res); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if hits.Load() == 0 {
		t.Fatal("reader never hit — the race never exercised the read path")
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("size bound never evicted — the race never exercised eviction")
	}
	if st.Bytes > s.MaxBytes {
		t.Fatalf("store holds %d bytes above the %d bound", st.Bytes, s.MaxBytes)
	}
}
