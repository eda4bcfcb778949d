// Package resultstore is a content-addressed, on-disk cache of simulation
// results. A result is addressed by the pair (machine configuration,
// workload identity): the configuration half is sim.Config.Fingerprint and
// the workload half is workloads.Identity, so identical runs submitted by
// any client — the raccdd daemon, cmd/sweep -cache, tests — share one
// cached sim.Result, and every cached byte replays into exactly the CSV
// and figures a fresh simulation would produce.
//
// Properties:
//
//   - Atomic writes: objects land via create-temp + rename, so a reader
//     (even in another process sharing the directory) never observes a
//     half-written object.
//   - Versioned schema: every object carries a schema version and its own
//     key string; mismatches read as misses, corruption is deleted.
//   - Single-flight: concurrent GetOrCompute calls for one key run the
//     simulation once; the other callers wait and share the result. A
//     computation abandoned to its own caller's cancellation is not
//     shared: the waiters compute afresh.
//   - Size-bounded: when MaxBytes is set, least-recently-used objects are
//     evicted after each write (recency is the object file's mtime, which
//     Get refreshes on every hit).
//   - Warm hits from memory: the store keeps the decoded result of up to
//     memCopies objects it has read back from disk. A later hit serves
//     that copy when one stat shows the object file with the size and
//     mtime it had at the copy's last recency refresh; any other answer
//     (including a filesystem whose mtimes are coarser than the refresh
//     time) falls back to reading and decoding the file. A Put, an
//     eviction or a miss of a key drops its copy, and results a Put
//     writes enter memory only once they are read back, so one-off
//     results never displace hot ones.
package resultstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"raccd/internal/sim"
)

// schemaVersion is the on-disk object schema; objects written with any
// other version read as misses.
const schemaVersion = 1

// memCopies bounds the decoded results a Store keeps in memory. A
// sim.Result is 448 bytes, so a full set costs well under a MiB; it holds
// the paper's whole evaluation (207 runs per scale) at several scales.
const memCopies = 1024

// staleTempAge is how old an orphaned temp file must be before Open
// reclaims it; younger ones may be another process's in-flight write.
const staleTempAge = time.Hour

// Key addresses one cached result. Build it with KeyOf.
type Key struct {
	// id is the full human-readable identity "cfg... | workload...".
	id string
	// hash is hex(sha256(id)) — the object's content address.
	hash string
}

// KeyOf combines a configuration fingerprint (sim.Config.Fingerprint) and
// a workload identity (workloads.Identity) into a store key.
func KeyOf(configFingerprint, workloadIdentity string) Key {
	id := configFingerprint + " | " + workloadIdentity
	sum := sha256.Sum256([]byte(id))
	return Key{id: id, hash: hex.EncodeToString(sum[:])}
}

// String returns the human-readable identity the key hashes.
func (k Key) String() string { return k.id }

// Hash returns the content address (the object's file name).
func (k Key) Hash() string { return k.hash }

// object is the on-disk envelope around a cached result.
type object struct {
	Version int        `json:"v"`
	Key     string     `json:"key"`
	Result  sim.Result `json:"result"`
}

// Stats counts store traffic since Open. Read a coherent copy with
// Store.Stats.
type Stats struct {
	// Hits are Get/GetOrCompute calls served from the store: from the
	// decoded copy in memory when a stat shows the object file unchanged
	// since the copy was last checked, by reading the file otherwise.
	Hits uint64
	// Coalesced are GetOrCompute calls that waited on another caller's
	// in-flight computation instead of simulating themselves — cache hits
	// that never touched the disk.
	Coalesced uint64
	// Misses are calls that found nothing and (for GetOrCompute) ran the
	// computation.
	Misses uint64
	// Puts counts objects written.
	Puts uint64
	// Evictions counts objects removed by the size bound.
	Evictions uint64
	// CorruptDropped counts unreadable objects deleted on read.
	CorruptDropped uint64
	// Bytes is the current total size of stored objects.
	Bytes uint64
	// Objects is the current object count.
	Objects int
}

// HitRate returns hits (disk + coalesced) over all lookups, 0 when idle.
func (s Stats) HitRate() float64 {
	tot := s.Hits + s.Coalesced + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(tot)
}

// Store is an open result cache rooted at one directory. It is safe for
// concurrent use; multiple processes may share the directory (writes are
// atomic renames of complete objects), though the size bound and stats
// are enforced per process.
type Store struct {
	dir string

	// MaxBytes bounds the total object size; 0 means unbounded. Exceeding
	// it after a Put evicts least-recently-used objects.
	MaxBytes uint64

	mu    sync.Mutex
	stats Stats
	// index mirrors the object files for GC accounting: hash → {size, atime}.
	index map[string]indexEntry
	// mem holds decoded copies of objects read back from disk, by hash,
	// at most memCopies of them.
	mem map[string]memCopy
	// flight tracks in-progress GetOrCompute computations by hash.
	flight map[string]*flight
}

type indexEntry struct {
	size  uint64
	atime time.Time
	// put numbers the Put that wrote the object (Stats.Puts after it);
	// 0 for an object found by Open.
	put uint64
}

// memCopy is the decoded result of an object file, with the file's size
// and the mtime the store set on it when it last refreshed its recency.
type memCopy struct {
	res   sim.Result
	size  int64
	mtime time.Time
}

// current reports whether the object file at path still has the size
// and mtime recorded with c.
func (c memCopy) current(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Size() == c.size && fi.ModTime().Equal(c.mtime)
}

type flight struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// Open creates (if needed) and indexes a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{
		dir:    dir,
		index:  make(map[string]indexEntry),
		mem:    make(map[string]memCopy),
		flight: make(map[string]*flight),
	}
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		info, err := d.Info()
		if err != nil {
			return nil // racing remover; skip
		}
		if filepath.Ext(name) != ".json" {
			// Temp file from a writer that crashed mid-Put: reclaim it —
			// but only once it is clearly stale. A young temp file may
			// belong to another process sharing the directory, about to
			// rename it into place.
			if time.Since(info.ModTime()) > staleTempAge {
				os.Remove(path)
			}
			return nil
		}
		s.index[name[:len(name)-len(".json")]] = indexEntry{
			size:  uint64(info.Size()),
			atime: info.ModTime(),
		}
		s.stats.Bytes += uint64(info.Size())
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultstore: indexing %s: %w", dir, err)
	}
	s.stats.Objects = len(s.index)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// objectPath shards objects over 256 subdirectories by hash prefix.
func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash+".json")
}

// Get returns the cached result for key, if present and readable. A
// corrupt or schema-mismatched object reads as a miss (corruption is
// deleted). Hits refresh the object's recency. A hit on an object this
// process has read back before is served from its decoded copy while the
// file is unchanged (memCopy.current), and reads the file otherwise.
func (s *Store) Get(key Key) (sim.Result, bool) {
	path := s.objectPath(key.hash)
	s.mu.Lock()
	c, held := s.mem[key.hash]
	put := s.index[key.hash].put
	s.mu.Unlock()

	res, size, ok := c.res, c.size, held && c.current(path)
	if !ok {
		res, size, ok = s.read(key, path)
	}
	if !ok {
		// The file is gone, corrupt (and dropped) or of another schema:
		// no copy of it may stay.
		s.mu.Lock()
		s.stats.Misses++
		delete(s.mem, key.hash)
		s.mu.Unlock()
		return sim.Result{}, false
	}
	// Refresh recency on disk so cross-process LRU sees the hit too. If
	// the refresh fails, the file lacks the mtime the copy records, and
	// the next hit's stat falls back to reading the file.
	now := time.Now()
	_ = os.Chtimes(path, now, now)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Hits++
	e, indexed := s.index[key.hash]
	if indexed {
		e.atime = now
		s.index[key.hash] = e
	}
	// A Put of this key since the lookup began may have replaced the file
	// the refresh just stamped, and a stat cannot tell that file from the
	// one the copy came from: keep the copy only if no Put did.
	if e.put == put {
		s.keepLocked(key.hash, memCopy{res: res, size: size, mtime: now})
	}
	return res, true
}

// keepLocked stores c as hash's copy, first dropping an arbitrary other
// copy if memCopies are held. Called with mu held.
func (s *Store) keepLocked(hash string, c memCopy) {
	if _, held := s.mem[hash]; !held && len(s.mem) >= memCopies {
		for h := range s.mem {
			delete(s.mem, h)
			break
		}
	}
	s.mem[hash] = c
}

// testHookRead, when set by a test, runs each time the store has read
// an object file, before it decodes it.
var testHookRead func()

// read loads and validates the object file at path without touching
// stats, returning the result and the file's size.
func (s *Store) read(key Key, path string) (sim.Result, int64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return sim.Result{}, 0, false
	}
	if testHookRead != nil {
		testHookRead()
	}
	var obj object
	if err := json.Unmarshal(data, &obj); err != nil {
		s.dropCorrupt(key.hash, path)
		return sim.Result{}, 0, false
	}
	if obj.Version != schemaVersion {
		// A different schema (likely a newer writer sharing the
		// directory): miss, but leave the object alone.
		return sim.Result{}, 0, false
	}
	if obj.Key != key.id {
		// Hash collision or torn content that still parsed: treat as
		// corruption.
		s.dropCorrupt(key.hash, path)
		return sim.Result{}, 0, false
	}
	return obj.Result, int64(len(data)), true
}

// dropCorrupt deletes an unreadable object and de-indexes it.
func (s *Store) dropCorrupt(hash, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[hash]; ok {
		s.stats.Bytes -= e.size
		s.stats.Objects--
		delete(s.index, hash)
	}
	s.stats.CorruptDropped++
	os.Remove(path)
}

// Put stores res under key, atomically, and applies the size bound.
func (s *Store) Put(key Key, res sim.Result) error {
	data, err := json.Marshal(object{Version: schemaVersion, Key: key.id, Result: res})
	if err != nil {
		return fmt.Errorf("resultstore: encoding %s: %w", key.id, err)
	}
	data = append(data, '\n')
	path := s.objectPath(key.hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: writing %s: %w", key.hash, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: writing %s: %w", key.hash, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: publishing %s: %w", key.hash, err)
	}

	s.mu.Lock()
	if old, ok := s.index[key.hash]; ok {
		s.stats.Bytes -= old.size
		s.stats.Objects--
	}
	s.stats.Bytes += uint64(len(data))
	s.stats.Objects++
	s.stats.Puts++
	s.index[key.hash] = indexEntry{size: uint64(len(data)), atime: time.Now(), put: s.stats.Puts}
	delete(s.mem, key.hash)
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// evictLocked removes least-recently-used objects until the store fits
// MaxBytes. Called with mu held.
func (s *Store) evictLocked() {
	if s.MaxBytes == 0 || s.stats.Bytes <= s.MaxBytes {
		return
	}
	type cand struct {
		hash string
		indexEntry
	}
	cands := make([]cand, 0, len(s.index))
	for h, e := range s.index {
		cands = append(cands, cand{h, e})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].atime.Before(cands[j].atime) })
	for _, c := range cands {
		if s.stats.Bytes <= s.MaxBytes {
			break
		}
		os.Remove(s.objectPath(c.hash))
		s.stats.Bytes -= c.size
		s.stats.Objects--
		s.stats.Evictions++
		delete(s.index, c.hash)
		delete(s.mem, c.hash)
	}
}

// ErrComputeFailed wraps compute errors passed through GetOrCompute so
// callers can tell a store failure from a simulation failure.
var ErrComputeFailed = errors.New("resultstore: compute failed")

// testHookJoined, when set by a test, runs each time a caller joins
// another caller's in-flight computation, before it waits on it.
var testHookJoined func()

// GetOrCompute returns the cached result for key, computing and storing
// it on a miss. Concurrent calls for the same key are coalesced: exactly
// one runs compute, the rest block and share its outcome (errors are
// shared but never cached). The exception is a computation that ended
// in context.Canceled or context.DeadlineExceeded: that is its own
// caller's cancellation, not an outcome of the run, so each waiter
// retries — joining a newer computation or running its own compute. The
// returned bool is true when the result came from the cache or a
// coalesced computation rather than this caller's own compute.
func (s *Store) GetOrCompute(key Key, compute func() (sim.Result, error)) (sim.Result, bool, error) {
	s.mu.Lock()
	for {
		f, inFlight := s.flight[key.hash]
		if !inFlight {
			break
		}
		s.mu.Unlock()
		if testHookJoined != nil {
			testHookJoined()
		}
		<-f.done
		if f.err == nil {
			s.mu.Lock()
			s.stats.Coalesced++
			s.mu.Unlock()
			return f.res, true, nil
		}
		if !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded) {
			return sim.Result{}, false, f.err
		}
		s.mu.Lock()
	}
	// Not in flight: claim it before probing the disk, so a concurrent
	// caller coalesces instead of double-reading.
	f := &flight{done: make(chan struct{})}
	s.flight[key.hash] = f
	s.mu.Unlock()

	res, hit := s.Get(key)
	if hit {
		f.res = res
		s.finish(key.hash, f)
		return res, true, nil
	}
	res, err := compute()
	if err != nil {
		f.err = fmt.Errorf("%w: %w", ErrComputeFailed, err)
		s.finish(key.hash, f)
		return sim.Result{}, false, err
	}
	f.res = res
	// The simulation succeeded; a Put failure (full or read-only disk)
	// must not fail the run — serve the result uncached.
	_ = s.Put(key, res)
	s.finish(key.hash, f)
	return res, false, nil
}

// finish publishes a flight's outcome and clears the slot.
func (s *Store) finish(hash string, f *flight) {
	s.mu.Lock()
	delete(s.flight, hash)
	s.mu.Unlock()
	close(f.done)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
