package resultstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raccd/internal/sim"
)

// countReads counts object-file reads until the test ends.
func countReads(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	testHookRead = func() { n.Add(1) }
	t.Cleanup(func() { testHookRead = nil })
	return &n
}

// TestMemoryServesRepeatedHits: the first hit of a key reads its object
// file; every later hit is served from the decoded copy, equal to it,
// and still counts as a hit.
func TestMemoryServesRepeatedHits(t *testing.T) {
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
	if memHeld(s, key) {
		t.Fatal("Put left a copy in memory: only results read back enter it")
	}
	reads := countReads(t)
	for i := 1; i <= 5; i++ {
		got, ok := s.Get(key)
		if !ok || got != res {
			t.Fatalf("hit %d: ok=%v, result changed", i, ok)
		}
		if n := reads.Load(); n != 1 {
			t.Fatalf("after hit %d: %d file reads, want 1", i, n)
		}
	}
	if st := s.Stats(); st.Hits != 5 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 5 hits", st)
	}
	// Another handle on the directory reads the file once too.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, ok := s2.Get(key); !ok || got != res {
			t.Fatal("second handle missed")
		}
	}
	if n := reads.Load(); n != 2 {
		t.Fatalf("%d file reads over both handles, want 2", n)
	}
}

// TestMemoryCopyRereadAfterRewrite: rewriting an object with other bytes of
// the same size gives the file a new mtime, so the next hit does not
// trust the copy: it reads the file, drops it as corrupt, and misses.
func TestMemoryCopyRereadAfterRewrite(t *testing.T) {
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
	reads := countReads(t)
	for i := 0; i < 2; i++ {
		if _, ok := s.Get(key); !ok {
			t.Fatal("miss before the rewrite")
		}
	}
	path := s.objectPath(key.hash)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte{'x'}, int(before.Size()))
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() || after.ModTime().Equal(before.ModTime()) {
		t.Fatalf("rewrite kept size %d → %d, mtime %v → %v: want the same size and a new mtime",
			before.Size(), after.Size(), before.ModTime(), after.ModTime())
	}

	if _, ok := s.Get(key); ok {
		t.Fatal("rewritten object served from memory")
	}
	if n := reads.Load(); n != 2 {
		t.Fatalf("%d file reads, want 2: the first hit and the one after the rewrite", n)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt object not deleted")
	}
	if memHeld(s, key) {
		t.Fatal("copy of a dropped object kept")
	}
	if st := s.Stats(); st.Hits != 2 || st.Misses != 1 || st.CorruptDropped != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 1 corrupt drop", st)
	}
}

// TestMemoryCopyNotKeptAcrossPut: a Put that replaces an object while a
// Get is reading it leaves no copy of the old result behind, although
// the new object has the same size and the Get's recency refresh stamps
// it with the mtime the copy would record.
func TestMemoryCopyNotKeptAcrossPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("cfg", "wl")
	old, fresh := sim.Result{Workload: "w", Cycles: 1}, sim.Result{Workload: "w", Cycles: 2}
	if err := s.Put(key, old); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	testHookRead = func() {
		once.Do(func() {
			if err := s.Put(key, fresh); err != nil {
				t.Error(err)
			}
		})
	}
	t.Cleanup(func() { testHookRead = nil })
	if got, ok := s.Get(key); !ok || got != old {
		t.Fatalf("Get racing the Put: %+v ok=%v, want the old result it read", got, ok)
	}
	for i := 0; i < 2; i++ {
		if got, ok := s.Get(key); !ok || got != fresh {
			t.Fatalf("Get %d after the Put: %+v ok=%v, want the new result", i+1, got, ok)
		}
	}
}

// TestMemoryCopiesDroppedByPutAndEviction: a Put of a key, and its eviction by the
// size bound, each leave no copy behind.
func TestMemoryCopiesDroppedByPutAndEviction(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := sim.Result{Workload: "old", Cycles: 1}
	key := KeyOf("cfg", "wl-1")
	if err := s.Put(key, old); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok || !memHeld(s, key) {
		t.Fatal("a hit kept no copy")
	}
	fresh := sim.Result{Workload: "new", Cycles: 2}
	if err := s.Put(key, fresh); err != nil {
		t.Fatal(err)
	}
	if memHeld(s, key) {
		t.Fatal("Put kept the copy of the object it replaced")
	}
	if got, ok := s.Get(key); !ok || got != fresh {
		t.Fatalf("after Put: got %+v ok=%v, want the new result", got, ok)
	}

	// Bound the store to one object: the next Put evicts key, the
	// least recently used.
	setAtimeForTest(s, key, time.Now().Add(-time.Hour))
	s.MaxBytes = s.Stats().Bytes
	if err := s.Put(KeyOf("cfg", "wl-2"), fresh); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 eviction", st)
	}
	if memHeld(s, key) {
		t.Fatal("eviction left the evicted object's copy behind")
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("evicted object still a hit")
	}
}

// TestMemoryCopiesBounded: reading back more distinct objects than
// memCopies keeps at most memCopies copies, and every read is a hit.
func TestMemoryCopiesBounded(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = memCopies + 8
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = KeyOf("cfg", fmt.Sprintf("wl-%d", i))
		if err := s.Put(keys[i], sim.Result{Workload: "w", Cycles: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		if got, ok := s.Get(k); !ok || got.Cycles != uint64(i) {
			t.Fatalf("key %d: ok=%v cycles=%d", i, ok, got.Cycles)
		}
		if m := memLen(s); m > memCopies {
			t.Fatalf("after %d reads: %d copies held, bound %d", i+1, m, memCopies)
		}
	}
	if m := memLen(s); m != memCopies {
		t.Fatalf("%d copies held after %d reads, want the bound %d", m, n, memCopies)
	}
	// The newest read-back was admitted, so its next hit reads no file.
	reads := countReads(t)
	if _, ok := s.Get(keys[n-1]); !ok || reads.Load() != 0 {
		t.Fatalf("ok=%v after %d reads, want a hit from memory", ok, reads.Load())
	}
}

// TestMemoryCopiesRacing: readers hit a few hot keys while one writer
// re-puts them and another floods the store with fresh keys, so the
// size bound evicts continuously. Under -race this checks every path
// that touches the copies; every hit must return a result some Put
// stored under its key, and once the writers stop, each hot key reads
// back the last result put under it.
func TestMemoryCopiesRacing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const hot = 4
	keys := make([]Key, hot)
	for i := range keys {
		keys[i] = KeyOf("cfg", fmt.Sprintf("hot-%d", i))
		if err := s.Put(keys[i], sim.Result{Workload: "hot", Cycles: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.MaxBytes = 8 * s.Stats().Bytes / hot

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hits atomic.Int64
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (n + r) % hot
				got, ok := s.Get(keys[i])
				if !ok {
					continue // evicted; the re-putter brings it back
				}
				hits.Add(1)
				// Round r of the re-putter stores Cycles = i + hot*r.
				if got.Workload != "hot" || got.Cycles%hot != uint64(i) {
					errs <- fmt.Errorf("key %d read back %+v", i, got)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	last := make([]uint64, hot)
	go func() {
		defer wg.Done()
		for round := 1; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for i, k := range keys {
				last[i] = uint64(i + hot*round)
				if err := s.Put(k, sim.Result{Workload: "hot", Cycles: last[i]}); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for i := 0; i < 300; i++ {
		if err := s.Put(KeyOf("cfg", fmt.Sprintf("filler-%d", i)), sim.Result{Workload: "filler"}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hits.Load() == 0 {
		t.Fatal("readers never hit: the race never reached the copies")
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatal("size bound never evicted")
	}
	for i, k := range keys {
		if err := s.Put(k, sim.Result{Workload: "hot", Cycles: last[i]}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if got, ok := s.Get(k); !ok || got.Cycles != last[i] {
				t.Fatalf("key %d after the writers stopped: ok=%v cycles=%d, want %d", i, ok, got.Cycles, last[i])
			}
		}
	}
}
