package resultstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raccd/internal/sim"
	"raccd/internal/workloads"
)

// runKey builds the store key cmd/sweep and the service use.
func runKey(t *testing.T, cfg sim.Config, name string, scale float64) Key {
	t.Helper()
	id, err := workloads.Identity(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return KeyOf(cfg.Fingerprint(), id)
}

// simulate runs a real (tiny) simulation so cached results carry every
// populated field, floats included.
func simulate(t *testing.T, cfg sim.Config, name string, scale float64) sim.Result {
	t.Helper()
	w, err := workloads.Get(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultsEquivalent compares results ignoring the non-serialized
// Hierarchy handle (a Get after Put round-trips through JSON, which drops
// it by design).
func resultsEquivalent(a, b sim.Result) bool {
	a.Hierarchy, b.Hierarchy = nil, nil
	return reflect.DeepEqual(a, b)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{DirRatio: 1, Validate: true} // zero System = FullCoh
	res := simulate(t, cfg, "Jacobi", 0.05)
	key := runKey(t, cfg, "Jacobi", 0.05)

	if _, ok := s.Get(key); ok {
		t.Fatal("hit before Put")
	}
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !resultsEquivalent(got, res) {
		t.Fatalf("round-trip changed the result:\n got %+v\nwant %+v", got, res)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Objects != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put / 1 object", st)
	}

	// A reopened store (fresh process) sees the object.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got2, ok := s2.Get(key); !ok || !resultsEquivalent(got2, res) {
		t.Fatal("reopened store lost the object")
	}
	if st2 := s2.Stats(); st2.Objects != 1 || st2.Bytes == 0 {
		t.Fatalf("reopened stats = %+v", st2)
	}
}

func TestKeySeparatesConfigsAndWorkloads(t *testing.T) {
	cfgA := sim.Config{DirRatio: 1}
	cfgB := sim.Config{DirRatio: 16}
	a := runKey(t, cfgA, "Jacobi", 0.05)
	if b := runKey(t, cfgB, "Jacobi", 0.05); a.Hash() == b.Hash() {
		t.Fatal("different configs share a key")
	}
	if b := runKey(t, cfgA, "MD5", 0.05); a.Hash() == b.Hash() {
		t.Fatal("different workloads share a key")
	}
	if b := runKey(t, cfgA, "Jacobi", 0.06); a.Hash() == b.Hash() {
		t.Fatal("different scales share a key")
	}
	if b := runKey(t, cfgA, "Jacobi", 0.05); a.Hash() != b.Hash() || a.String() != b.String() {
		t.Fatal("identical runs must share a key")
	}
}

func TestCorruptObjectReadsAsMissAndIsDropped(t *testing.T) {
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
	path := filepath.Join(s.Dir(), "objects", key.Hash()[:2], key.Hash()+".json")

	for name, garbage := range map[string][]byte{
		"truncated": []byte(`{"v":1,"key":`),
		"binary":    {0xff, 0x00, 0x41},
		"wrong-key": []byte(`{"v":1,"key":"something else","result":{}}`),
	} {
		if err := os.WriteFile(path, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("%s: corrupt object served as a hit", name)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: corrupt object not deleted", name)
		}
		// The store still works after dropping the corruption.
		if err := s.Put(key, res); err != nil {
			t.Fatalf("%s: Put after corruption: %v", name, err)
		}
		if _, ok := s.Get(key); !ok {
			t.Fatalf("%s: store did not recover", name)
		}
	}
	if st := s.Stats(); st.CorruptDropped != 3 {
		t.Fatalf("CorruptDropped = %d, want 3", st.CorruptDropped)
	}
}

func TestSchemaVersionMismatchIsMissButNotDeleted(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{DirRatio: 1, Validate: true}
	key := runKey(t, cfg, "Jacobi", 0.05)
	path := filepath.Join(s.Dir(), "objects", key.Hash()[:2], key.Hash()+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	// An object from a hypothetical newer schema sharing the directory.
	if err := os.WriteFile(path, []byte(`{"v":999,"key":"x","result":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("foreign-schema object served as a hit")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("foreign-schema object must not be deleted")
	}
}

func TestEvictionLRU(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{DirRatio: 1, Validate: true}
	res := simulate(t, cfg, "Jacobi", 0.05)

	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = KeyOf(cfg.Fingerprint(), "synthetic-identity-"+strings.Repeat("x", i+1))
		if err := s.Put(keys[i], res); err != nil {
			t.Fatal(err)
		}
	}
	objSize := s.Stats().Bytes / 4

	// Pin recency order explicitly (filesystem mtime granularity is too
	// coarse to rely on): keys[1] is the LRU victim, keys[0] was touched
	// most recently among the first four.
	base := time.Now().Add(-time.Hour)
	setAtimeForTest(s, keys[1], base)
	setAtimeForTest(s, keys[2], base.Add(1*time.Minute))
	setAtimeForTest(s, keys[3], base.Add(2*time.Minute))
	setAtimeForTest(s, keys[0], base.Add(3*time.Minute))

	// Bound to ~4.5 objects and trigger GC with a fifth Put: exactly one
	// eviction (the LRU object) brings the store back under the bound.
	s.MaxBytes = objSize*4 + objSize/2
	k5 := KeyOf(cfg.Fingerprint(), "synthetic-identity-five")
	if err := s.Put(k5, res); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("LRU object survived eviction")
	}
	for _, k := range []Key{keys[0], keys[2], keys[3], k5} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently-used object %s was evicted", k.String())
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions counted")
	}
	if st.Bytes > s.MaxBytes {
		t.Fatalf("store over bound after GC: %d > %d", st.Bytes, s.MaxBytes)
	}
}

func TestGetOrComputeSingleFlight(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{DirRatio: 1, Validate: true}
	key := runKey(t, cfg, "Jacobi", 0.05)

	var computes atomic.Int64
	compute := func() (sim.Result, error) {
		computes.Add(1)
		return simulate(t, cfg, "Jacobi", 0.05), nil
	}

	const callers = 16
	var wg sync.WaitGroup
	results := make([]sim.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := s.GetOrCompute(key, compute)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if !resultsEquivalent(results[i], results[0]) {
			t.Fatalf("caller %d got a different result", i)
		}
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (the single simulation)", st.Misses)
	}
	if st.Hits+st.Coalesced != callers-1 {
		t.Fatalf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, callers-1)
	}

	// A fresh call now hits the disk.
	if _, cached, err := s.GetOrCompute(key, compute); err != nil || !cached {
		t.Fatalf("post-flight call: cached=%v err=%v, want cache hit", cached, err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute re-ran after caching: %d", n)
	}
}

func TestGetOrComputeErrorsSharedNotCached(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("cfg", "wl")
	boom := errors.New("boom")
	var computes atomic.Int64
	_, _, err = s.GetOrCompute(key, func() (sim.Result, error) {
		computes.Add(1)
		return sim.Result{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure is not cached: the next call computes again.
	res, cached, err := s.GetOrCompute(key, func() (sim.Result, error) {
		computes.Add(1)
		return sim.Result{Workload: "ok"}, nil
	})
	if err != nil || cached || res.Workload != "ok" {
		t.Fatalf("retry: res=%+v cached=%v err=%v", res, cached, err)
	}
	if computes.Load() != 2 {
		t.Fatalf("computes = %d, want 2", computes.Load())
	}
}

// joinThenFail runs a GetOrCompute for key whose compute, once a second
// caller has joined it, fails with err. It returns the second caller's
// outcome; the second caller's own compute returns a result named
// "second".
func joinThenFail(t *testing.T, s *Store, key Key, err error) (sim.Result, bool, error) {
	t.Helper()
	joined := make(chan struct{})
	testHookJoined = sync.OnceFunc(func() { close(joined) })
	defer func() { testHookJoined = nil }()
	type outcome struct {
		res    sim.Result
		cached bool
		err    error
	}
	second := make(chan outcome, 1)
	_, _, firstErr := s.GetOrCompute(key, func() (sim.Result, error) {
		go func() {
			res, cached, err := s.GetOrCompute(key, func() (sim.Result, error) {
				return sim.Result{Workload: "second"}, nil
			})
			second <- outcome{res, cached, err}
		}()
		<-joined
		return sim.Result{}, err
	})
	if !errors.Is(firstErr, err) {
		t.Fatalf("first caller err = %v, want %v", firstErr, err)
	}
	out := <-second
	return out.res, out.cached, out.err
}

// TestGetOrComputeWaiterRetriesCancelledFlight: a caller that joined an
// identical in-flight computation does not inherit that computation's
// cancellation or deadline — the first caller's context is not its
// own — so it runs its own compute and succeeds.
func TestGetOrComputeWaiterRetriesCancelledFlight(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res, cached, err := joinThenFail(t, s, KeyOf("cfg", "wl"), cause)
		if err != nil || cached || res.Workload != "second" {
			t.Fatalf("%v: joined caller got workload %q cached=%v err=%v, want its own result", cause, res.Workload, cached, err)
		}
		if st := s.Stats(); st.Misses != 2 || st.Coalesced != 0 || st.Puts != 1 {
			t.Fatalf("%v: stats %+v, want 2 misses, 0 coalesced, 1 put", cause, st)
		}
	}
}

// TestGetOrComputeWaiterSharesFailure: any other failure of the shared
// computation is the run's own, so the joined caller gets it too — as
// ErrComputeFailed wrapping the cause.
func TestGetOrComputeWaiterSharesFailure(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, _, err = joinThenFail(t, s, KeyOf("cfg", "wl"), boom)
	if !errors.Is(err, ErrComputeFailed) || !errors.Is(err, boom) {
		t.Fatalf("joined caller err = %v, want ErrComputeFailed wrapping boom", err)
	}
}

func TestOpenReclaimsOnlyStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "objects", "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "objects", "ab", ".tmp-crashed")
	fresh := filepath.Join(dir, "objects", "ab", ".tmp-inflight")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale crashed temp file not reclaimed")
	}
	// A recent temp file may be another process mid-Put: leave it alone.
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh in-flight temp file was deleted")
	}
}
